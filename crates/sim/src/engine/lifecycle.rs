//! The typed per-task lifecycle.
//!
//! Every task moves through an explicit state machine instead of a pile of
//! ad-hoc booleans. The engine *drives* the machine — arrival, dispatch,
//! enforcement, faults, dead-lettering and replay each request one
//! transition — and the machine *validates* it: the legal-successor table is
//! an exhaustive `match` (adding a phase forces every arm to be revisited at
//! compile time), and any transition outside the table is rejected with an
//! [`IllegalTransition`] error rather than silently corrupting state.
//!
//! ```text
//!             ┌────────────────────────────────────────────┐
//!             ▼                                            │
//! Pending ─► Ready ─► Running ─► Completed                 │
//!    │        ▲ │ ▲      │                                 │
//!    │        │ ▼ │      │ (retry / crash / preemption)────┘
//!    │        │ Requeued │
//!    │        │ │        ▼
//!    └────────┼─┴──► DeadLettered
//!             └────────── (replay)
//! ```

use super::arena::AttemptChain;
use crate::faults::checkpoint_progress_s;
use tora_alloc::resources::ResourceVector;
use tora_metrics::DeadLetterCause;

/// Where a task currently is in its lifecycle.
///
/// The successor table lives in [`TaskPhase::successors`]; everything else
/// (counters, allocations, attempt history) rides along in the engine's
/// per-task state and is only meaningful in the phases that use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskPhase {
    /// Known to the engine but not yet runnable: the arrival model has not
    /// released it, or a predecessor has not completed.
    Pending,
    /// In the ready queue, waiting for the scheduler to place it.
    Ready,
    /// An attempt is in flight on some worker.
    Running,
    /// A transiently-failed dispatch is backing off before re-queueing.
    Requeued,
    /// Finished successfully — truly terminal, no transitions out.
    Completed,
    /// Abandoned to the dead-letter channel. Terminal for accounting, but a
    /// replayable cause may re-admit the task to `Ready` once the pool
    /// recovers.
    DeadLettered,
}

impl TaskPhase {
    /// Every phase in the machine (the exhaustive-table tests walk this).
    pub const ALL: [TaskPhase; 6] = [
        TaskPhase::Pending,
        TaskPhase::Ready,
        TaskPhase::Running,
        TaskPhase::Requeued,
        TaskPhase::Completed,
        TaskPhase::DeadLettered,
    ];

    /// The legal successors of this phase — the single source of truth for
    /// the whole machine. The `match` is exhaustive over `TaskPhase`, so a
    /// new phase cannot be added without deciding its place here.
    pub fn successors(self) -> &'static [TaskPhase] {
        match self {
            // Released by the arrival model / dependency resolution, or
            // doomed before ever running (dependency cascade, stalled run).
            TaskPhase::Pending => &[TaskPhase::Ready, TaskPhase::DeadLettered],
            // Placed on a worker, bounced by a flaky dispatch, or abandoned
            // (unplaceable, dispatch budget spent, stalled run).
            TaskPhase::Ready => &[
                TaskPhase::Running,
                TaskPhase::Requeued,
                TaskPhase::DeadLettered,
            ],
            // An attempt ends exactly one of three ways: success, a retry
            // (kill / crash / preemption re-queues the task), or terminal
            // abandonment (attempt budget spent, escalation infeasible).
            TaskPhase::Running => &[
                TaskPhase::Ready,
                TaskPhase::Completed,
                TaskPhase::DeadLettered,
            ],
            // Backoff elapsed, or the run stalled while the task waited.
            TaskPhase::Requeued => &[TaskPhase::Ready, TaskPhase::DeadLettered],
            // Success is forever.
            TaskPhase::Completed => &[],
            // Dead-letter replay re-admits the task to the ready queue.
            TaskPhase::DeadLettered => &[TaskPhase::Ready],
        }
    }

    /// Whether `self → to` is in the legal-successor table.
    pub fn can_advance(self, to: TaskPhase) -> bool {
        self.successors().contains(&to)
    }

    /// Whether the phase counts toward run termination (the event loop ends
    /// when every task is `Completed` or `DeadLettered`).
    pub fn is_terminal(self) -> bool {
        matches!(self, TaskPhase::Completed | TaskPhase::DeadLettered)
    }
}

/// A transition outside the legal-successor table.
///
/// The engine never produces one in a well-formed run (the lifecycle
/// proptests drive arbitrary fault plans through the engine to prove it);
/// surfacing the pair instead of panicking deep in a handler keeps the
/// failure debuggable when a future change does break the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The phase the task was in.
    pub from: TaskPhase,
    /// The phase the engine asked for.
    pub to: TaskPhase,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "illegal task transition {:?} -> {:?}",
            self.from, self.to
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// Per-task engine state: the lifecycle phase plus the bookkeeping that
/// rides along with it.
pub(crate) struct TaskState {
    /// Where the task is in its lifecycle (see [`TaskPhase`]).
    pub(crate) phase: TaskPhase,
    /// Attempt history, chained through the engine's shared
    /// [`super::arena::AttemptArena`] slab.
    pub(crate) attempts: AttemptChain,
    /// Bumped whenever the task's ready-queue membership is revoked
    /// (dead-letter); entries carrying an older token are stale.
    pub(crate) queue_token: u32,
    /// Allocation for the next dispatch; `None` until first predicted.
    pub(crate) next_alloc: Option<ResourceVector>,
    /// `next_alloc` must not be re-predicted: it was fixed by a retry
    /// escalation (which a later, smaller prediction must not undo) or by a
    /// preemption (resubmit with the same allocation).
    pub(crate) pinned: bool,
    /// Allocator knowledge epoch `next_alloc` was predicted under; stale
    /// unpinned predictions are refreshed at the next scheduling round.
    pub(crate) predicted_epoch: u64,
    /// Whether the arrival model has released the task.
    pub(crate) arrived: bool,
    /// Predecessors still running (Fig. 1's dependency resolution).
    pub(crate) deps_remaining: usize,
    /// Consecutive transient dispatch failures (reset on success).
    pub(crate) dispatch_failures: usize,
    /// Consecutive scheduling rounds spent ready but unplaceable on every
    /// live worker (reset whenever some worker could ever host it).
    pub(crate) unplaceable_strikes: usize,
    /// How many times the task was pulled back from the dead-letter channel
    /// (bounded by the plan's `max_replay_rounds`).
    pub(crate) replays: usize,
    /// Why the task is currently dead-lettered (`None` while live); decides
    /// replay eligibility without searching the metrics.
    pub(crate) dead_cause: Option<DeadLetterCause>,
    /// Checkpointed work carried across crashed attempts, in seconds of the
    /// task's nominal duration. Zero unless the fault plan enables
    /// checkpoint/restart (`checkpointed_fraction > 0`). The bank survives
    /// dead-lettering and replay — a persisted checkpoint outlives the
    /// scheduler's opinion of the task.
    pub(crate) salvaged_s: f64,
}

impl TaskState {
    pub(crate) fn fresh(deps_remaining: usize) -> Self {
        TaskState {
            phase: TaskPhase::Pending,
            attempts: AttemptChain::default(),
            queue_token: 0,
            next_alloc: None,
            pinned: false,
            predicted_epoch: 0,
            arrived: false,
            deps_remaining,
            dispatch_failures: 0,
            unplaceable_strikes: 0,
            replays: 0,
            dead_cause: None,
            salvaged_s: 0.0,
        }
    }

    /// Drive the lifecycle one step, validating against the successor
    /// table. The engine `expect`s the result: an `Err` here is an engine
    /// bug, never a property of the workload or fault plan.
    pub(crate) fn advance(&mut self, to: TaskPhase) -> Result<(), IllegalTransition> {
        if !self.phase.can_advance(to) {
            return Err(IllegalTransition {
                from: self.phase,
                to,
            });
        }
        self.phase = to;
        Ok(())
    }

    /// Terminally abandoned (dead-lettered): must never run again unless
    /// replay re-admits it.
    pub(crate) fn is_dead(&self) -> bool {
        self.phase == TaskPhase::DeadLettered
    }

    /// Finished successfully.
    pub(crate) fn is_completed(&self) -> bool {
        self.phase == TaskPhase::Completed
    }

    /// Bank checkpointed progress from a crashed attempt: `fraction` of the
    /// work the attempt actually finished (capped at what was left to do)
    /// carries forward to the next dispatch. Returns the salvaged seconds.
    pub(crate) fn bank_salvage(
        &mut self,
        fraction: f64,
        elapsed_s: f64,
        work_rate: f64,
        remaining_s: f64,
    ) -> f64 {
        let salvaged = fraction * checkpoint_progress_s(elapsed_s, work_rate, remaining_s);
        if salvaged > 0.0 {
            self.salvaged_s += salvaged;
        }
        salvaged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full legal-transition table, spelled out pair by pair. This is
    /// deliberately redundant with `successors()`: the test encodes the
    /// *intended* machine so an accidental edit to the table shows up as a
    /// diff against intent, not a silently changed contract.
    const LEGAL: [(TaskPhase, TaskPhase); 11] = [
        (TaskPhase::Pending, TaskPhase::Ready),
        (TaskPhase::Pending, TaskPhase::DeadLettered),
        (TaskPhase::Ready, TaskPhase::Running),
        (TaskPhase::Ready, TaskPhase::Requeued),
        (TaskPhase::Ready, TaskPhase::DeadLettered),
        (TaskPhase::Requeued, TaskPhase::Ready),
        (TaskPhase::Requeued, TaskPhase::DeadLettered),
        (TaskPhase::Running, TaskPhase::Ready),
        (TaskPhase::Running, TaskPhase::Completed),
        (TaskPhase::Running, TaskPhase::DeadLettered),
        (TaskPhase::DeadLettered, TaskPhase::Ready),
    ];

    #[test]
    fn exhaustive_transition_table_matches_intent() {
        for from in TaskPhase::ALL {
            for to in TaskPhase::ALL {
                let want = LEGAL.contains(&(from, to));
                assert_eq!(
                    from.can_advance(to),
                    want,
                    "{from:?} -> {to:?}: table says {want}"
                );
            }
        }
        // Every successor list is consistent with the pair table too.
        for from in TaskPhase::ALL {
            for &to in from.successors() {
                assert!(LEGAL.contains(&(from, to)), "{from:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn completed_is_absorbing_and_dead_letter_only_replays() {
        assert!(TaskPhase::Completed.successors().is_empty());
        assert_eq!(TaskPhase::DeadLettered.successors(), &[TaskPhase::Ready]);
        assert!(TaskPhase::Completed.is_terminal());
        assert!(TaskPhase::DeadLettered.is_terminal());
        for live in [
            TaskPhase::Pending,
            TaskPhase::Ready,
            TaskPhase::Running,
            TaskPhase::Requeued,
        ] {
            assert!(!live.is_terminal(), "{live:?}");
        }
    }

    #[test]
    fn advance_applies_legal_and_rejects_illegal_transitions() {
        let mut t = TaskState::fresh(0);
        assert_eq!(t.phase, TaskPhase::Pending);
        t.advance(TaskPhase::Ready).unwrap();
        t.advance(TaskPhase::Running).unwrap();
        t.advance(TaskPhase::Completed).unwrap();
        // Success is forever: every exit from Completed is rejected and the
        // phase is left untouched.
        for to in TaskPhase::ALL {
            let err = t.advance(to).unwrap_err();
            assert_eq!(
                err,
                IllegalTransition {
                    from: TaskPhase::Completed,
                    to
                }
            );
            assert_eq!(t.phase, TaskPhase::Completed);
        }
        let msg = format!(
            "{}",
            IllegalTransition {
                from: TaskPhase::Completed,
                to: TaskPhase::Ready
            }
        );
        assert!(msg.contains("Completed"), "{msg}");
    }

    #[test]
    fn every_phase_is_reachable_from_pending() {
        // Walk the machine breadth-first: the table must not strand any
        // declared phase.
        let mut seen = vec![TaskPhase::Pending];
        let mut frontier = vec![TaskPhase::Pending];
        while let Some(p) = frontier.pop() {
            for &next in p.successors() {
                if !seen.contains(&next) {
                    seen.push(next);
                    frontier.push(next);
                }
            }
        }
        for phase in TaskPhase::ALL {
            assert!(seen.contains(&phase), "{phase:?} unreachable");
        }
    }

    #[test]
    fn salvage_bank_accumulates_and_clamps_to_remaining_work() {
        let mut t = TaskState::fresh(0);
        // Half-checkpointing, full-speed attempt: 30 s elapsed of 100 s
        // remaining banks 15 s.
        assert_eq!(t.bank_salvage(0.5, 30.0, 1.0, 100.0), 15.0);
        assert_eq!(t.salvaged_s, 15.0);
        // A stretched (straggling) attempt progresses at its work rate.
        assert_eq!(t.bank_salvage(0.5, 40.0, 0.25, 85.0), 5.0);
        assert_eq!(t.salvaged_s, 20.0);
        // Progress can never exceed the work that was left.
        assert_eq!(t.bank_salvage(1.0, 1e9, 1.0, 80.0), 80.0);
        assert_eq!(t.salvaged_s, 100.0);
        // A hung attempt (work rate zero) checkpoints nothing.
        assert_eq!(t.bank_salvage(1.0, 50.0, 0.0, 80.0), 0.0);
        assert_eq!(t.salvaged_s, 100.0);
    }
}
