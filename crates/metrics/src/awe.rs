//! Workflow-level aggregation: Absolute Workflow Efficiency and the waste
//! breakdown (§II-C).
//!
//! `AWE({Tᵢ}) = Σ C(Tᵢ) / Σ A(Tᵢ)` — total useful consumption over total
//! allocation. The metric treats the workflow as a whole and is independent
//! of how many (opportunistic) workers happened to be available, which is
//! why the paper uses it as the headline number in Figure 5. Figure 6 splits
//! the complementary waste into internal fragmentation and failed
//! allocations; [`WasteBreakdown`] carries that split.

use crate::outcome::{DeadLetter, TaskOutcome};
use serde::{Deserialize, Serialize};
use tora_alloc::resources::ResourceKind;
use tora_alloc::task::{CategoryId, TaskId};

/// The §II-C waste split of one resource dimension.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WasteBreakdown {
    /// `Σ t·(a − c)` over tasks: over-allocation of successful attempts.
    pub internal_fragmentation: f64,
    /// `Σ Σ aᵢ·tᵢ` over tasks' failed attempts.
    pub failed_allocation: f64,
}

impl WasteBreakdown {
    /// Total waste.
    pub fn total(&self) -> f64 {
        self.internal_fragmentation + self.failed_allocation
    }

    /// Fraction of the waste that is failed allocation (0 when no waste).
    pub fn failed_share(&self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.failed_allocation / t
        } else {
            0.0
        }
    }
}

/// Waste of one dimension attributed by blame. Complements the §II-C
/// [`WasteBreakdown`] (which splits by *mechanism*) with a split by
/// *responsibility*: did the allocator waste it, or did the environment?
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WasteAttribution {
    /// Allocator's fault: internal fragmentation plus retry waste of
    /// attempts killed for over-consumption.
    pub allocation_induced: f64,
    /// Environment's fault: retry waste of crashed / timed-out attempts,
    /// plus straggler drag on completed runs.
    pub fault_induced: f64,
    /// Allocation burned by tasks that never completed at all.
    pub dead_lettered: f64,
}

impl WasteAttribution {
    /// Total attributed waste.
    pub fn total(&self) -> f64 {
        self.allocation_induced + self.fault_induced + self.dead_lettered
    }
}

/// Aggregated metrics over a completed workflow run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkflowMetrics {
    outcomes: Vec<TaskOutcome>,
    #[serde(default)]
    dead_letters: Vec<DeadLetter>,
}

impl WorkflowMetrics {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one finished task.
    pub fn push(&mut self, outcome: TaskOutcome) {
        debug_assert!(outcome.check().is_ok(), "{:?}", outcome.check());
        self.outcomes.push(outcome);
    }

    /// All recorded outcomes.
    pub fn outcomes(&self) -> &[TaskOutcome] {
        &self.outcomes
    }

    /// Number of completed tasks.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no outcomes were recorded.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Total useful consumption `Σ C(Tᵢ)` of one dimension.
    pub fn total_consumption(&self, kind: ResourceKind) -> f64 {
        self.outcomes.iter().map(|o| o.consumption(kind)).sum()
    }

    /// Total allocation `Σ A(Tᵢ)` of one dimension.
    pub fn total_allocation(&self, kind: ResourceKind) -> f64 {
        self.outcomes.iter().map(|o| o.total_allocation(kind)).sum()
    }

    /// Absolute Workflow Efficiency of one dimension. `None` when the total
    /// allocation is zero (no tasks, or a dimension nobody allocates).
    pub fn awe(&self, kind: ResourceKind) -> Option<f64> {
        let alloc = self.total_allocation(kind);
        if alloc <= 0.0 {
            return None;
        }
        Some(self.total_consumption(kind) / alloc)
    }

    /// The waste breakdown of one dimension.
    pub fn waste(&self, kind: ResourceKind) -> WasteBreakdown {
        let mut w = WasteBreakdown::default();
        for o in &self.outcomes {
            w.internal_fragmentation += o.internal_fragmentation(kind);
            w.failed_allocation += o.failed_allocation_waste(kind);
        }
        w
    }

    /// Total failed attempts across the workflow.
    pub fn total_retries(&self) -> usize {
        self.outcomes.iter().map(|o| o.failed_attempts()).sum()
    }

    /// Record a task the engine gave up on.
    pub fn push_dead_letter(&mut self, letter: DeadLetter) {
        debug_assert!(letter.check().is_ok(), "{:?}", letter.check());
        self.dead_letters.push(letter);
    }

    /// Withdraw a task's dead letter — the engine is about to replay it —
    /// returning the letter so the caller can restore its attempt history.
    /// `None` when the task has no recorded dead letter.
    pub fn remove_dead_letter(&mut self, task: TaskId) -> Option<DeadLetter> {
        let idx = self.dead_letters.iter().position(|d| d.task == task)?;
        Some(self.dead_letters.remove(idx))
    }

    /// All dead-lettered tasks.
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead_letters
    }

    /// Number of dead-lettered tasks.
    pub fn dead_lettered_count(&self) -> usize {
        self.dead_letters.len()
    }

    /// Allocation burned by dead-lettered tasks in one dimension.
    fn dead_letter_allocation(&self, kind: ResourceKind) -> f64 {
        self.dead_letters
            .iter()
            .map(|d| d.total_allocation(kind))
            .sum()
    }

    /// Degraded-mode AWE: useful consumption over *all* allocation the run
    /// charged, including what dead-lettered tasks burned. Equals
    /// [`awe`](Self::awe) when nothing was dead-lettered; strictly below it
    /// otherwise. `None` when the denominator is zero.
    pub fn degraded_awe(&self, kind: ResourceKind) -> Option<f64> {
        let alloc = self.total_allocation(kind) + self.dead_letter_allocation(kind);
        if alloc <= 0.0 {
            return None;
        }
        Some(self.total_consumption(kind) / alloc)
    }

    /// Split one dimension's waste by blame: allocator vs environment vs
    /// abandoned work. `allocation_induced + fault_induced` equals the
    /// §II-C waste of the completed tasks plus their straggler drag;
    /// adding `dead_lettered` covers every charged-but-useless unit.
    pub fn attributed_waste(&self, kind: ResourceKind) -> WasteAttribution {
        let mut w = WasteAttribution::default();
        for o in &self.outcomes {
            let fault_failed = o.fault_failed_waste(kind);
            w.allocation_induced +=
                o.internal_fragmentation(kind) + o.failed_allocation_waste(kind) - fault_failed;
            w.fault_induced += fault_failed + o.straggler_drag(kind);
        }
        w.dead_lettered = self.dead_letter_allocation(kind);
        w
    }

    /// Restrict to one category's outcomes (§III-B's per-category analysis).
    pub fn filter_category(&self, category: CategoryId) -> WorkflowMetrics {
        WorkflowMetrics {
            outcomes: self
                .outcomes
                .iter()
                .filter(|o| o.category == category)
                .cloned()
                .collect(),
            dead_letters: self
                .dead_letters
                .iter()
                .filter(|d| d.category == category)
                .cloned()
                .collect(),
        }
    }
}

impl FromIterator<TaskOutcome> for WorkflowMetrics {
    fn from_iter<I: IntoIterator<Item = TaskOutcome>>(iter: I) -> Self {
        let mut m = WorkflowMetrics::new();
        for o in iter {
            m.push(o);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::AttemptOutcome;
    use tora_alloc::resources::ResourceVector;
    use tora_alloc::task::TaskId;

    fn simple(task: u64, category: u32, peak_mem: f64, alloc_mem: f64) -> TaskOutcome {
        let peak = ResourceVector::new(1.0, peak_mem, 10.0);
        let alloc = ResourceVector::new(1.0, alloc_mem, 10.0);
        TaskOutcome {
            task: TaskId(task),
            category: CategoryId(category),
            peak,
            duration_s: 10.0,
            attempts: vec![AttemptOutcome::success(alloc, 10.0)],
        }
    }

    #[test]
    fn awe_is_one_for_oracle_allocations() {
        let m: WorkflowMetrics = (0..10).map(|i| simple(i, 0, 100.0, 100.0)).collect();
        for kind in ResourceKind::STANDARD {
            assert_eq!(m.awe(kind), Some(1.0), "{kind}");
            assert_eq!(m.waste(kind).total(), 0.0, "{kind}");
        }
    }

    #[test]
    fn awe_matches_hand_computation() {
        // Two tasks, memory: (100 used / 200 alloc) and (300 used / 400 alloc)
        // over equal 10 s: AWE = 4000 / 6000 = 2/3.
        let m: WorkflowMetrics = [simple(0, 0, 100.0, 200.0), simple(1, 0, 300.0, 400.0)]
            .into_iter()
            .collect();
        let awe = m.awe(ResourceKind::MemoryMb).unwrap();
        assert!((awe - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn awe_in_unit_interval_and_consistent_with_waste() {
        let m: WorkflowMetrics = (0..20)
            .map(|i| simple(i, 0, 50.0 + i as f64, 200.0))
            .collect();
        let kind = ResourceKind::MemoryMb;
        let awe = m.awe(kind).unwrap();
        assert!(awe > 0.0 && awe <= 1.0);
        // AWE = C / (C + waste).
        let c = m.total_consumption(kind);
        let w = m.waste(kind).total();
        assert!((awe - c / (c + w)).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_have_no_awe() {
        let m = WorkflowMetrics::new();
        assert!(m.is_empty());
        assert_eq!(m.awe(ResourceKind::Cores), None);
        assert_eq!(m.total_retries(), 0);
    }

    #[test]
    fn waste_breakdown_splits_if_and_fa() {
        let peak = ResourceVector::new(1.0, 300.0, 10.0);
        let o = TaskOutcome {
            task: TaskId(0),
            category: CategoryId(0),
            peak,
            duration_s: 10.0,
            attempts: vec![
                AttemptOutcome::failure(ResourceVector::new(1.0, 100.0, 1024.0), 5.0),
                AttemptOutcome::success(ResourceVector::new(1.0, 350.0, 1024.0), 10.0),
            ],
        };
        let m: WorkflowMetrics = [o].into_iter().collect();
        let w = m.waste(ResourceKind::MemoryMb);
        assert_eq!(w.failed_allocation, 500.0);
        assert_eq!(w.internal_fragmentation, 500.0);
        assert_eq!(w.total(), 1000.0);
        assert_eq!(w.failed_share(), 0.5);
        assert_eq!(m.total_retries(), 1);
    }

    #[test]
    fn category_filter_partitions_outcomes() {
        let m: WorkflowMetrics = [
            simple(0, 0, 100.0, 200.0),
            simple(1, 1, 300.0, 300.0),
            simple(2, 0, 100.0, 100.0),
        ]
        .into_iter()
        .collect();
        let c0 = m.filter_category(CategoryId(0));
        let c1 = m.filter_category(CategoryId(1));
        assert_eq!(c0.len(), 2);
        assert_eq!(c1.len(), 1);
        assert_eq!(c1.awe(ResourceKind::MemoryMb), Some(1.0));
        assert_eq!(c0.len() + c1.len(), m.len());
    }

    #[test]
    fn degraded_awe_charges_dead_lettered_allocation() {
        use crate::outcome::{DeadLetter, DeadLetterCause};
        // One clean completion: 100 used / 100 allocated over 10 s.
        let mut m: WorkflowMetrics = [simple(0, 0, 100.0, 100.0)].into_iter().collect();
        let k = ResourceKind::MemoryMb;
        assert_eq!(m.awe(k), Some(1.0));
        assert_eq!(m.degraded_awe(k), Some(1.0));
        // A dead-lettered task that burned 100 MB for 10 s.
        m.push_dead_letter(DeadLetter {
            task: TaskId(1),
            category: CategoryId(0),
            cause: DeadLetterCause::AttemptsExhausted,
            attempts: vec![AttemptOutcome::failure(
                ResourceVector::new(1.0, 100.0, 10.0),
                10.0,
            )],
        });
        assert_eq!(m.dead_lettered_count(), 1);
        // Plain AWE ignores the abandoned work; degraded AWE charges it:
        // 1000 useful / (1000 + 1000) charged.
        assert_eq!(m.awe(k), Some(1.0));
        assert_eq!(m.degraded_awe(k), Some(0.5));
        assert_eq!(m.dead_letter_allocation(k), 1000.0);
    }

    #[test]
    fn remove_dead_letter_withdraws_exactly_one() {
        use crate::outcome::{DeadLetter, DeadLetterCause};
        let mut m = WorkflowMetrics::new();
        let attempts = vec![AttemptOutcome::failure(
            ResourceVector::new(1.0, 100.0, 10.0),
            2.0,
        )];
        m.push_dead_letter(DeadLetter {
            task: TaskId(7),
            category: CategoryId(0),
            cause: DeadLetterCause::Unplaceable,
            attempts: attempts.clone(),
        });
        assert!(m.remove_dead_letter(TaskId(8)).is_none());
        let letter = m.remove_dead_letter(TaskId(7)).expect("recorded letter");
        assert_eq!(letter.attempts, attempts);
        assert_eq!(m.dead_lettered_count(), 0);
        assert!(m.remove_dead_letter(TaskId(7)).is_none());
    }

    #[test]
    fn attributed_waste_splits_blame() {
        use crate::outcome::{AttemptCause, DeadLetter, DeadLetterCause};
        let k = ResourceKind::MemoryMb;
        // Task 0: one allocation kill (100 MB × 4 s), then a straggled
        // success at 400 MB charged 12 s for a 10 s task.
        let o = TaskOutcome {
            task: TaskId(0),
            category: CategoryId(0),
            peak: ResourceVector::new(1.0, 300.0, 10.0),
            duration_s: 10.0,
            attempts: vec![
                AttemptOutcome::failure(ResourceVector::new(1.0, 100.0, 10.0), 4.0),
                AttemptOutcome::failure_with_cause(
                    ResourceVector::new(1.0, 400.0, 10.0),
                    2.0,
                    AttemptCause::WorkerCrash,
                ),
                AttemptOutcome::success_straggled(ResourceVector::new(1.0, 400.0, 10.0), 12.0),
            ],
        };
        o.check().unwrap();
        let mut m: WorkflowMetrics = [o].into_iter().collect();
        m.push_dead_letter(DeadLetter {
            task: TaskId(1),
            category: CategoryId(0),
            cause: DeadLetterCause::Unplaceable,
            attempts: vec![AttemptOutcome::failure_with_cause(
                ResourceVector::new(1.0, 50.0, 10.0),
                2.0,
                AttemptCause::WorkerCrash,
            )],
        });
        let w = m.attributed_waste(k);
        // Allocator's fault: kill waste 100×4 + fragmentation (400−300)×10.
        assert_eq!(w.allocation_induced, 400.0 + 1000.0);
        // Environment's fault: crash waste 400×2 + drag 400×(12−10).
        assert_eq!(w.fault_induced, 800.0 + 800.0);
        assert_eq!(w.dead_lettered, 100.0);
        // Every charged unit is useful consumption or attributed waste.
        let charged = m.total_allocation(k) + m.dead_letter_allocation(k);
        assert!((charged - (m.total_consumption(k) + w.total())).abs() < 1e-9);
    }
}
