//! Workflow-level aggregation: Absolute Workflow Efficiency and the waste
//! breakdown (§II-C).
//!
//! `AWE({Tᵢ}) = Σ C(Tᵢ) / Σ A(Tᵢ)` — total useful consumption over total
//! allocation. The metric treats the workflow as a whole and is independent
//! of how many (opportunistic) workers happened to be available, which is
//! why the paper uses it as the headline number in Figure 5. Figure 6 splits
//! the complementary waste into internal fragmentation and failed
//! allocations; [`WasteBreakdown`] carries that split. All of these are
//! sums over tasks, so [`WorkflowMetrics`] keeps running sums, not tasks.

use crate::outcome::{
    DeadLetter, TaskOutcome, Terms, ALLOCATION, ALLOCATION_INDUCED, CONSUMPTION, FAILED_ALLOCATION,
    FAULT_INDUCED, INTERNAL_FRAGMENTATION,
};
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

/// No tasks: consumption and allocation start at `-0.0`, as the empty
/// `Iterator::sum` does; the waste splits at `+0.0`, their `Default`.
const NO_TASKS: Terms = {
    let mut sums = [[0.0; ResourceKind::ALL.len()]; 6];
    sums[CONSUMPTION] = [-0.0; ResourceKind::ALL.len()];
    sums[ALLOCATION] = [-0.0; ResourceKind::ALL.len()];
    sums
};

/// Aggregated metrics over a workflow run: running sums over its completed
/// tasks, plus the dead letters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkflowMetrics {
    /// Index `i` counts the tasks that took `i + 1` attempts.
    attempts: Vec<usize>,
    /// Running sums of the task terms, `[term][kind]`.
    sums: Terms,
    /// The same sums per category, in first-completion order.
    categories: Vec<(CategoryId, WorkflowMetrics)>,
    /// Every pushed outcome, kept only by [`WorkflowMetrics::with_rows`].
    rows: Option<Vec<TaskOutcome>>,
    dead_letters: Vec<DeadLetter>,
}

impl Default for WorkflowMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkflowMetrics {
    /// An empty accumulator that keeps sums, not tasks.
    pub fn new() -> Self {
        WorkflowMetrics {
            attempts: Vec::new(),
            sums: NO_TASKS,
            categories: Vec::new(),
            rows: None,
            dead_letters: Vec::new(),
        }
    }

    /// An empty accumulator that also keeps every pushed outcome, for the
    /// readers that need per-task rows ([`crate::rolling_awe`], per-task
    /// checks). The sums are the same either way.
    pub fn with_rows() -> Self {
        WorkflowMetrics {
            rows: Some(Vec::new()),
            ..Self::new()
        }
    }

    /// Ingest one finished task: add its terms to the run's sums and its
    /// category's, in push order.
    pub fn push(&mut self, outcome: &TaskOutcome) {
        debug_assert!(outcome.check().is_ok(), "{:?}", outcome.check());
        let terms = outcome.terms();
        let attempts = outcome.attempts.len();
        self.add(attempts, &terms);
        let idx = self
            .categories
            .iter()
            .position(|(c, _)| *c == outcome.category)
            .unwrap_or_else(|| {
                self.categories.push((outcome.category, Self::new()));
                self.categories.len() - 1
            });
        self.categories[idx].1.add(attempts, &terms);
        if let Some(rows) = &mut self.rows {
            rows.push(outcome.clone());
        }
    }

    fn add(&mut self, attempts: usize, terms: &Terms) {
        if self.attempts.len() < attempts {
            self.attempts.resize(attempts, 0);
        }
        self.attempts[attempts - 1] += 1;
        for (sums, terms) in self.sums.iter_mut().zip(terms) {
            for (sum, term) in sums.iter_mut().zip(terms) {
                *sum += term;
            }
        }
    }

    /// Every pushed outcome in push order; `None` unless built by
    /// [`WorkflowMetrics::with_rows`].
    pub fn outcomes(&self) -> Option<&[TaskOutcome]> {
        self.rows.as_deref()
    }

    /// Number of completed tasks.
    pub fn len(&self) -> usize {
        self.attempts.iter().sum()
    }

    /// Whether no outcomes were recorded.
    pub fn is_empty(&self) -> bool {
        self.attempts.is_empty()
    }

    fn sum(&self, kind: ResourceKind, term: usize) -> f64 {
        self.sums[term][kind as usize]
    }

    /// Total useful consumption `Σ C(Tᵢ)` of one dimension.
    pub fn total_consumption(&self, kind: ResourceKind) -> f64 {
        self.sum(kind, CONSUMPTION)
    }

    /// Total allocation `Σ A(Tᵢ)` of one dimension.
    pub fn total_allocation(&self, kind: ResourceKind) -> f64 {
        self.sum(kind, ALLOCATION)
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
        WasteBreakdown {
            internal_fragmentation: self.sum(kind, INTERNAL_FRAGMENTATION),
            failed_allocation: self.sum(kind, FAILED_ALLOCATION),
        }
    }

    /// Total failed attempts across the workflow.
    pub fn total_retries(&self) -> usize {
        self.attempts.iter().enumerate().map(|(i, n)| i * n).sum()
    }

    /// Histogram of attempts per task: index 0 counts single-attempt
    /// tasks, index 1 one-retry tasks, and so on.
    pub fn attempts_histogram(&self) -> &[usize] {
        &self.attempts
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
        WasteAttribution {
            allocation_induced: self.sum(kind, ALLOCATION_INDUCED),
            fault_induced: self.sum(kind, FAULT_INDUCED),
            dead_lettered: self.dead_letter_allocation(kind),
        }
    }

    /// Restrict to one category (§III-B's per-category analysis): its sums,
    /// its rows when kept, and its dead letters.
    pub fn filter_category(&self, category: CategoryId) -> WorkflowMetrics {
        let sums = self.categories.iter().find(|(c, _)| *c == category);
        let rows = self.rows.as_ref().map(|rows| rows.iter());
        WorkflowMetrics {
            categories: sums.into_iter().cloned().collect(),
            rows: rows.map(|r| r.filter(|o| o.category == category).cloned().collect()),
            dead_letters: self
                .dead_letters
                .iter()
                .filter(|d| d.category == category)
                .cloned()
                .collect(),
            ..sums.map_or_else(Self::new, |(_, sums)| sums.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::AttemptOutcome;
    use tora_alloc::resources::ResourceVector;
    use tora_alloc::task::TaskId;

    /// A rows-keeping fold of `outcomes`.
    fn fold(outcomes: impl IntoIterator<Item = TaskOutcome>) -> WorkflowMetrics {
        let mut m = WorkflowMetrics::with_rows();
        for o in outcomes {
            m.push(&o);
        }
        m
    }

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
        let m = fold((0..10).map(|i| simple(i, 0, 100.0, 100.0)));
        for kind in ResourceKind::STANDARD {
            assert_eq!(m.awe(kind), Some(1.0), "{kind}");
            assert_eq!(m.waste(kind).total(), 0.0, "{kind}");
        }
    }

    #[test]
    fn awe_matches_hand_computation() {
        // Two tasks, memory: (100 used / 200 alloc) and (300 used / 400 alloc)
        // over equal 10 s: AWE = 4000 / 6000 = 2/3.
        let m = fold([simple(0, 0, 100.0, 200.0), simple(1, 0, 300.0, 400.0)]);
        let awe = m.awe(ResourceKind::MemoryMb).unwrap();
        assert!((awe - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn awe_in_unit_interval_and_consistent_with_waste() {
        let m = fold((0..20).map(|i| simple(i, 0, 50.0 + i as f64, 200.0)));
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
        assert!(m.outcomes().is_none(), "rows are opt-in");
        assert_eq!(m.awe(ResourceKind::Cores), None);
        assert_eq!(m.total_retries(), 0);
        assert!(m.attempts_histogram().is_empty());
        // The empty sums read as the empty row sums did: `Iterator::sum`'s
        // `-0.0` for the totals, a default struct's `+0.0` for the splits.
        let k = ResourceKind::MemoryMb;
        assert_eq!(m.total_consumption(k).to_bits(), (-0.0f64).to_bits());
        assert_eq!(m.total_allocation(k).to_bits(), (-0.0f64).to_bits());
        assert_eq!(m.waste(k).internal_fragmentation.to_bits(), 0);
        assert_eq!(m.attributed_waste(k).fault_induced.to_bits(), 0);
        assert_eq!(fold([]).outcomes(), Some(&[][..]));
    }

    #[test]
    fn attempts_histogram_counts_retries() {
        let retried = |task, retries| {
            let mut o = simple(task, 0, 100.0, 200.0);
            let failed = AttemptOutcome::failure(ResourceVector::new(1.0, 50.0, 10.0), 2.0);
            o.attempts.splice(0..0, vec![failed; retries]);
            o
        };
        let m = fold([retried(0, 0), retried(1, 0), retried(2, 1), retried(3, 3)]);
        assert_eq!(m.attempts_histogram(), [2, 1, 0, 1]);
        assert_eq!(m.total_retries(), 4);
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
        let m = fold([o]);
        let w = m.waste(ResourceKind::MemoryMb);
        assert_eq!(w.failed_allocation, 500.0);
        assert_eq!(w.internal_fragmentation, 500.0);
        assert_eq!(w.total(), 1000.0);
        assert_eq!(w.failed_share(), 0.5);
        assert_eq!(m.total_retries(), 1);
    }

    #[test]
    fn category_filter_partitions_outcomes() {
        let m = fold([
            simple(0, 0, 100.0, 200.0),
            simple(1, 1, 300.0, 300.0),
            simple(2, 0, 100.0, 100.0),
        ]);
        let c0 = m.filter_category(CategoryId(0));
        let c1 = m.filter_category(CategoryId(1));
        assert_eq!(c0.len(), 2);
        assert_eq!(c1.len(), 1);
        assert_eq!(c1.awe(ResourceKind::MemoryMb), Some(1.0));
        assert_eq!(c0.len() + c1.len(), m.len());
        assert_eq!(c0.outcomes().map(<[_]>::len), Some(2));
        assert_eq!(c0.filter_category(CategoryId(0)).len(), 2);
        assert!(m.filter_category(CategoryId(9)).is_empty());
        // Without rows the per-category sums are still there.
        let mut sums = WorkflowMetrics::new();
        for o in m.outcomes().unwrap() {
            sums.push(o);
        }
        let s0 = sums.filter_category(CategoryId(0));
        assert!(s0.outcomes().is_none());
        let k = ResourceKind::MemoryMb;
        assert_eq!(s0.total_allocation(k), c0.total_allocation(k));
    }

    #[test]
    fn degraded_awe_charges_dead_lettered_allocation() {
        use crate::outcome::{DeadLetter, DeadLetterCause};
        // One clean completion: 100 used / 100 allocated over 10 s.
        let mut m = fold([simple(0, 0, 100.0, 100.0)]);
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
        let mut m = fold([o]);
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
