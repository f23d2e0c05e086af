//! The dead-letter channel and its replay path.
//!
//! Terminal abandonment is the engine's pressure-relief valve: a task whose
//! budgets are spent (attempts, dispatch retries, unplaceable rounds) or
//! whose inputs will never exist leaves the live run with an explicit
//! cause. Replay is the inverse valve — when the pool recovers, tasks whose
//! abandonment was an *environment* shortage are re-admitted, keeping the
//! conservation identity `submitted = completed + dead-lettered` intact at
//! every quiescent point.

use super::lifecycle::TaskPhase;
use super::Simulation;
use crate::log::SimEvent;
use tora_alloc::task::{CategoryId, TaskId};
use tora_alloc::trace::EventSink;
use tora_metrics::{DeadLetter, DeadLetterCause};

impl<S: EventSink> Simulation<S> {
    /// Terminally abandon a task: it leaves the ready queue, is recorded as
    /// a [`DeadLetter`] in the metrics, and recursively dooms every
    /// dependent (their input will never exist). Idempotent.
    pub(super) fn dead_letter(&mut self, task_idx: usize, cause: DeadLetterCause) {
        if self.tasks[task_idx].is_dead() || self.tasks[task_idx].is_completed() {
            return;
        }
        if self.source_window > 0 {
            // Bounded-lookahead cascade: every dependent of the dying task
            // lies within the source's declared window, so pulling that
            // span now lets the recursion doom them at this exact sim time,
            // as if every task had been present from the start.
            let horizon = (task_idx + self.source_window).min(self.total_target() - 1);
            self.ensure_spec(horizon);
        }
        let state = &mut self.tasks[task_idx];
        state
            .advance(TaskPhase::DeadLettered)
            .expect("live task enters the dead-letter channel");
        state.dead_cause = Some(cause);
        // Doomed before the arrival model released it: the dead letter
        // accounts the submission so conservation (submitted = completed +
        // dead-lettered) holds even if the run ends before its arrival.
        let unarrived = !std::mem::replace(&mut state.arrived, true);
        let mut attempts = Vec::new();
        self.attempt_arena
            .drain_into(&mut self.tasks[task_idx].attempts, &mut attempts);
        // Revoke any ready-queue membership lazily: bumping the token makes
        // a still-queued entry stale, which dispatch drops on sight —
        // exactly what the eager O(queue) scan-and-remove used to do.
        self.tasks[task_idx].queue_token = self.tasks[task_idx].queue_token.wrapping_add(1);
        if cause.replayable() {
            self.replay_candidates.insert(task_idx);
        }
        let spec = *self.tasks.spec(task_idx);
        let letter = DeadLetter {
            task: spec.id,
            category: spec.category,
            cause,
            attempts,
        };
        debug_assert!(letter.check().is_ok(), "{:?}", letter.check());
        self.result_metrics.push_dead_letter(letter);
        self.dead_lettered += 1;
        self.record(SimEvent::TaskDeadLettered {
            task: spec.id,
            cause,
            unarrived,
        });
        let dependents = std::mem::take(self.tasks.dependents_mut(task_idx));
        for &d in &dependents {
            self.dead_letter(d, DeadLetterCause::DependencyDeadLettered);
        }
        *self.tasks.dependents_mut(task_idx) = dependents;
    }

    /// Terminally abandon a declared-but-unpulled streaming task without
    /// materializing its spec.
    ///
    /// The byte-identical twin of [`Simulation::dead_letter`] for an index
    /// past `tasks.len()`: such a task was never arrived, never queued,
    /// never attempted and has no dependents, so the only observable effects
    /// are the submission accounting (conservation charges the submission at
    /// abandonment time, exactly as `dead_letter` does for an unarrived
    /// task), the [`DeadLetter`] record with an empty attempt history, and
    /// the log event. The category comes from
    /// [`tora_workloads::TaskSource::category_of`], which is RNG-free — the
    /// whole point is that a >10M-task unpulled tail costs nothing to sweep.
    pub(super) fn dead_letter_unpulled(&mut self, index: usize, cause: DeadLetterCause) {
        let category = self.source.category_of(index);
        let task = TaskId(index as u64);
        let letter = DeadLetter {
            task,
            category: CategoryId(category),
            cause,
            attempts: Vec::new(),
        };
        debug_assert!(letter.check().is_ok(), "{:?}", letter.check());
        self.result_metrics.push_dead_letter(letter);
        self.dead_lettered += 1;
        self.record(SimEvent::TaskDeadLettered {
            task,
            cause,
            unarrived: true,
        });
    }

    /// Re-admit replayable dead letters once the pool has recovered.
    ///
    /// Called on every worker join. Replay is enabled by the plan's
    /// `replay_capacity_fraction` / `max_replay_rounds` pair: when the live
    /// pool reaches the configured fraction of the largest pool ever seen, a
    /// dead letter whose cause was an environment shortage
    /// ([`DeadLetterCause::replayable`]) and which has replay rounds left is
    /// pulled back out of the channel and re-queued. The restored task keeps
    /// its attempt history (the attempt budget still applies across the
    /// replay) but its transient-failure counters start over.
    ///
    /// Conservation: `dead_lettered` counts *currently* abandoned tasks, so
    /// a replay decrements it (and a re-dead-letter increments it again) —
    /// `submitted = completed + dead_lettered` holds at every quiescent
    /// point, and cumulatively `replay_successes ≤ replayed`. Dependents
    /// cascaded from a replayed task stay dead: their own cause
    /// (`DependencyDeadLettered`) is not replayable.
    pub(super) fn maybe_replay_dead_letters(&mut self) {
        let plan = self.config.faults;
        if plan.max_replay_rounds == 0 || plan.replay_capacity_fraction <= 0.0 {
            return;
        }
        let needed = (plan.replay_capacity_fraction * self.peak_workers as f64).ceil() as usize;
        if self.pool.len() < needed.max(1) {
            return;
        }
        // The candidate set holds every dead task with a replayable cause,
        // in task order — the same order the old full scan produced. Tasks
        // whose replay budget is spent are pruned for good (replays never
        // decrease), so repeated joins don't rescan them.
        let mut candidates = Vec::new();
        let mut exhausted = Vec::new();
        for &i in &self.replay_candidates {
            let t = &self.tasks[i];
            debug_assert!(t.is_dead() && t.dead_cause.is_some_and(|c| c.replayable()));
            if t.replays < plan.max_replay_rounds {
                candidates.push(i);
            } else {
                exhausted.push(i);
            }
        }
        for i in exhausted {
            self.replay_candidates.remove(&i);
        }
        for task_idx in candidates {
            self.replay_candidates.remove(&task_idx);
            let task_id = self.tasks.spec(task_idx).id;
            let letter = self
                .result_metrics
                .remove_dead_letter(task_id)
                .expect("dead task has a recorded dead letter");
            let state = &mut self.tasks[task_idx];
            state
                .advance(TaskPhase::Ready)
                .expect("replay re-admits a dead-lettered task");
            state.dead_cause = None;
            state.replays += 1;
            state.dispatch_failures = 0;
            state.unplaceable_strikes = 0;
            state.pinned = false;
            state.next_alloc = None;
            // Restore the attempt history: the budget spans the replay.
            self.tasks[task_idx].attempts = self.attempt_arena.restore(letter.attempts);
            self.dead_lettered -= 1;
            self.record(SimEvent::TaskReplayed { task: task_id });
            // Replayable causes only ever strike ready (dependency-free,
            // arrived) tasks, so the task can re-enter the queue directly.
            self.push_ready(task_idx);
        }
    }
}
