//! Dispatch: allocation at dispatch time, first-fit placement, transient
//! dispatch failures with exponential backoff, and attempt completion.
//!
//! This is where the paper's contribution acts — a ready task is allocated
//! the moment it is placed (§II-A note), killed when it over-consumes, and
//! retried with a bigger allocation. Checkpoint/restart hooks in here too:
//! a task whose earlier attempts banked salvaged progress is judged on its
//! *remaining* duration, so the retry only pays for the work still owed.

use super::arena::RunId;
use super::lifecycle::TaskPhase;
use super::queue::Event;
use super::Simulation;
use crate::enforcement::AttemptVerdict;
use crate::log::SimEvent;
use crate::scheduler::QueuePolicy;
use crate::time::SimTime;
use crate::workers::WorkerId;
use rand::Rng;
use tora_alloc::feedback::AttemptFeedback;
use tora_alloc::resources::ResourceVector;
use tora_alloc::task::{ResourceRecord, TaskContext, TaskSpec};
use tora_alloc::trace::EventSink;
use tora_metrics::{AttemptCause, AttemptOutcome, DeadLetterCause, TaskOutcome};

/// One attempt in flight on a worker.
pub(super) struct Running {
    pub(super) task_idx: usize,
    pub(super) worker: WorkerId,
    pub(super) alloc: ResourceVector,
    pub(super) start: SimTime,
    pub(super) verdict: AttemptVerdict,
    /// How this attempt will end if it runs to its `Finish` event
    /// (straggler injection is decided at dispatch time).
    pub(super) cause: AttemptCause,
    /// Nominal task seconds finished per wall-clock second (1.0 normally,
    /// `1/multiplier` for a straggler, 0.0 for a hung attempt); prices
    /// checkpointed progress when the attempt crashes.
    pub(super) work_rate: f64,
    /// Task duration still owed at dispatch time (the full duration minus
    /// any salvage banked by earlier crashed attempts).
    pub(super) remaining_s: f64,
}

impl<S: EventSink> Simulation<S> {
    /// The allocation a queued task would get if dispatched right now.
    /// Allocation happens at dispatch time (§II-A note), so a queued first
    /// attempt's prediction goes stale whenever the allocator learns
    /// something new — queue scans under non-FIFO policies must not freeze a
    /// prediction made before the estimator had data. The knowledge epoch
    /// (bumped on every observation) detects exactly that, so an unchanged
    /// estimator reuses the cached prediction instead of burning a fresh
    /// one per scheduling round. Pinned allocations (retry escalations and
    /// preemption resubmits) are never re-predicted.
    pub(super) fn ensure_alloc(&mut self, task_idx: usize) -> ResourceVector {
        if let Some(a) = self.tasks[task_idx].next_alloc {
            if self.tasks[task_idx].pinned
                || self.tasks[task_idx].predicted_epoch == self.alloc_epoch
            {
                return a;
            }
        }
        let ctx = TaskContext::from(&self.specs[task_idx]);
        let a = self.allocator.predict_first(ctx).into_alloc();
        self.stats.record_predict_first(ctx.category.0);
        let state = &mut self.tasks[task_idx];
        state.next_alloc = Some(a);
        state.predicted_epoch = self.alloc_epoch;
        state.pinned = false;
        a
    }

    /// Predicted allocations for the first `visible` ready-queue entries,
    /// as `(queue index, allocation)` pairs for the queue policy, each
    /// through [`ensure_alloc`](Self::ensure_alloc).
    fn predict_visible(&mut self, visible: usize) -> Vec<(usize, ResourceVector)> {
        (0..visible)
            .map(|qi| {
                let (task_idx, _) = self.ready[qi];
                (qi, self.ensure_alloc(task_idx))
            })
            .collect()
    }

    /// Drop stale ready-queue entries (their task's queue token moved on,
    /// i.e. it was dead-lettered after enqueueing). FIFO only ever looks at
    /// the head, so popping stale heads suffices; the scanning policies see
    /// the whole queue and need it compacted.
    fn drop_stale_ready(&mut self) {
        match self.config.queue_policy {
            QueuePolicy::Fifo => {
                while let Some(&entry) = self.ready.front() {
                    if self.ready_entry_live(entry) {
                        break;
                    }
                    self.ready.pop_front();
                }
            }
            _ => {
                let tasks = &self.tasks;
                self.ready
                    .retain(|&(t, token)| tasks[t].queue_token == token);
            }
        }
    }

    /// Dispatch ready tasks under the configured queue policy until nothing
    /// more fits.
    pub(super) fn dispatch(&mut self) {
        loop {
            self.drop_stale_ready();
            if self.ready.is_empty() {
                break;
            }
            // The FIFO policy only ever inspects (and therefore allocates)
            // the queue head; the others need every queued task's predicted
            // allocation.
            let visible = match self.config.queue_policy {
                QueuePolicy::Fifo => 1,
                _ => self.ready.len(),
            };
            let queue = self.predict_visible(visible);
            let pool = &self.pool;
            let Some(qi) = self
                .config
                .queue_policy
                .select(&queue, |alloc| pool.can_place(alloc))
            else {
                break; // nothing dispatchable right now
            };
            let (task_idx, _) = self.ready.remove(qi).expect("selected index in queue");
            // Transient dispatch failure: the placement RPC is lost before
            // the attempt starts. The task backs off (exponentially) and
            // re-enters the queue via a `Requeue` event — or is dead-lettered
            // once its consecutive-failure budget is spent.
            let plan = self.config.faults;
            if plan.dispatch_failure_rate > 0.0
                && self.fault_rng.gen::<f64>() < plan.dispatch_failure_rate
            {
                let state = &mut self.tasks[task_idx];
                state.dispatch_failures += 1;
                let failures = state.dispatch_failures;
                self.record(SimEvent::DispatchFailed {
                    task: self.specs[task_idx].id,
                });
                if plan.max_dispatch_retries > 0 && failures > plan.max_dispatch_retries {
                    self.dead_letter(task_idx, DeadLetterCause::DispatchRetriesExhausted);
                } else {
                    self.tasks[task_idx]
                        .advance(TaskPhase::Requeued)
                        .expect("flaky dispatch bounced a ready task");
                    let backoff = plan.dispatch_backoff_s
                        * 2f64.powi(failures.saturating_sub(1).min(10) as i32);
                    self.events
                        .schedule(self.now + backoff, Event::Requeue { task_idx });
                }
                continue;
            }
            self.tasks[task_idx].dispatch_failures = 0;
            let alloc = self.tasks[task_idx].next_alloc.expect("alloc just ensured");
            let avoid = self.rack_avoid_list();
            let worker = self.pool.place(&alloc, &avoid).expect("can_place verified");
            let task = self.specs[task_idx];
            // Checkpoint/restart: judge the attempt on the work still owed.
            // With no banked salvage this is the spec itself, bit for bit.
            let salvaged = self.tasks[task_idx].salvaged_s;
            let effective = if salvaged > 0.0 {
                TaskSpec {
                    duration_s: (task.duration_s - salvaged).max(0.0),
                    ..task
                }
            } else {
                task
            };
            let verdict = self.config.enforcement.judge(&effective, &alloc);
            let (verdict, cause, work_rate) = self.inject_straggler(verdict);
            self.dispatch_ids += 1;
            let dispatch = self.dispatch_ids;
            let run = self.running.insert(Running {
                task_idx,
                worker,
                alloc,
                start: self.now,
                verdict,
                cause,
                work_rate,
                remaining_s: effective.duration_s,
            });
            self.running_by_worker
                .entry(worker)
                .or_default()
                .push((dispatch, run));
            self.tasks[task_idx]
                .advance(TaskPhase::Running)
                .expect("dispatched task was ready");
            self.record(SimEvent::TaskDispatched {
                task: self.specs[task_idx].id,
                worker,
                attempt: self.tasks[task_idx].attempts.len() + 1,
                allocation: alloc,
            });
            self.events
                .schedule(self.now + verdict.charged_time_s, Event::Finish { run });
        }
    }

    /// Drop an attempt from its worker's victim index (it ended in place,
    /// rather than with the worker).
    pub(super) fn forget_worker_run(&mut self, worker: WorkerId, run: RunId) {
        if let Some(list) = self.running_by_worker.get_mut(&worker) {
            if let Some(pos) = list.iter().position(|&(_, r)| r == run) {
                list.swap_remove(pos);
            }
            if list.is_empty() {
                self.running_by_worker.remove(&worker);
            }
        }
    }

    pub(super) fn on_finish(&mut self, run_id: RunId) {
        let Some(run) = self.running.remove(run_id) else {
            return; // stale event: the attempt was preempted or crashed
        };
        self.forget_worker_run(run.worker, run_id);
        self.pool.release(run.worker, &run.alloc);
        let rack = self.pool.get(run.worker).map(|w| w.spec.rack);
        let task = self.specs[run.task_idx];
        if run.verdict.success {
            self.record(SimEvent::TaskCompleted {
                task: task.id,
                worker: run.worker,
            });
            let attempt = if run.cause == AttemptCause::StragglerCompleted {
                self.record(SimEvent::TaskStraggled { task: task.id });
                AttemptOutcome::success_straggled(run.alloc, run.verdict.charged_time_s)
            } else {
                AttemptOutcome::success(run.alloc, run.verdict.charged_time_s)
            };
            let state = &mut self.tasks[run.task_idx];
            self.attempt_arena.push(&mut state.attempts, attempt);
            let outcome = TaskOutcome {
                task: task.id,
                category: task.category,
                peak: task.peak,
                duration_s: task.duration_s,
                attempts: self.attempt_arena.take(&mut state.attempts),
            };
            debug_assert!(outcome.check().is_ok(), "{:?}", outcome.check());
            self.result_metrics.push(outcome);
            let plan = self.config.faults;
            if plan.record_dropout_rate > 0.0
                && self.fault_rng.gen::<f64>() < plan.record_dropout_rate
            {
                // The completion is real but its resource record never
                // reaches the allocator: nothing is learned from this task.
                self.record(SimEvent::RecordDropped { task: task.id });
            } else if self.allocator.observe(&ResourceRecord::from_task(&task)) {
                self.stats.record_observation(task.category.0);
                // The estimator just learned something: queued (unpinned)
                // first predictions are now stale.
                self.alloc_epoch += 1;
            } else {
                self.record(SimEvent::RecordRejected { task: task.id });
            }
            self.report_outcome(task.category, AttemptFeedback::Success, rack);
            self.completed += 1;
            self.tasks[run.task_idx]
                .advance(TaskPhase::Completed)
                .expect("completed attempt was running");
            let now_s = self.now.seconds();
            if let Some(cp) = self.cp.as_mut() {
                cp.record_finish(run.task_idx, now_s);
            }
            if self.tasks[run.task_idx].replays > 0 {
                self.record(SimEvent::ReplayCompleted { task: task.id });
            }
            // Dependency resolution: completed inputs release dependents.
            let dependents = std::mem::take(&mut self.dependents[run.task_idx]);
            for d in &dependents {
                let dep_state = &mut self.tasks[*d];
                dep_state.deps_remaining -= 1;
                // A cascade-doomed dependent stays dead even if its
                // predecessor later completes via replay.
                if dep_state.deps_remaining == 0 && dep_state.arrived && !dep_state.is_dead() {
                    dep_state
                        .advance(TaskPhase::Ready)
                        .expect("released dependent was pending");
                    self.push_ready(*d);
                }
            }
            self.dependents[run.task_idx] = dependents;
            // The application reacts to the result (Fig. 1's steering loop).
            if let Some(mut driver) = self.driver.take() {
                let mut api = self.submit_api();
                driver.on_task_complete(&task, &mut api);
                self.integrate_submissions(api);
                self.driver = Some(driver);
            }
        } else if run.cause == AttemptCause::StragglerTimeout {
            // Straggler watchdog kill: the allocation was not the problem,
            // so no retry prediction is made — resubmit with the same
            // (pinned) allocation, unless the attempt budget is spent.
            self.record(SimEvent::TaskTimedOut {
                task: task.id,
                worker: run.worker,
            });
            self.report_outcome(task.category, AttemptFeedback::Straggler, rack);
            let state = &mut self.tasks[run.task_idx];
            self.attempt_arena.push(
                &mut state.attempts,
                AttemptOutcome::failure_with_cause(
                    run.alloc,
                    run.verdict.charged_time_s,
                    AttemptCause::StragglerTimeout,
                ),
            );
            if self.attempts_spent(run.task_idx) {
                self.dead_letter(run.task_idx, DeadLetterCause::AttemptsExhausted);
            } else {
                self.requeue_pinned(run.task_idx, run.alloc);
            }
        } else {
            self.record(SimEvent::TaskKilled {
                task: task.id,
                worker: run.worker,
            });
            let state = &mut self.tasks[run.task_idx];
            self.attempt_arena.push(
                &mut state.attempts,
                AttemptOutcome::failure(run.alloc, run.verdict.charged_time_s),
            );
            self.report_outcome(task.category, AttemptFeedback::Exhaustion, rack);
            if self.attempts_spent(run.task_idx) {
                // Attempt budget spent: dead-letter without asking the
                // allocator for a retry (`capped_retries` balances the
                // `failures = retry predictions` reconciliation identity).
                self.record(SimEvent::RetryCapped { task: task.id });
                self.dead_letter(run.task_idx, DeadLetterCause::AttemptsExhausted);
                return;
            }
            let escalations = self
                .allocator
                .config()
                .managed
                .iter()
                .filter(|kind| run.verdict.exhausted.contains(**kind))
                .count() as u64;
            self.stats
                .record_predict_retry(task.category.0, escalations);
            let decision = self.allocator.predict_retry(
                TaskContext::from(&task),
                &run.alloc,
                &run.verdict.exhausted,
            );
            if decision.infeasible {
                // The retry could not grow any exhausted axis (already at
                // machine capacity): re-running would reproduce the exact
                // same kill forever.
                self.dead_letter(run.task_idx, DeadLetterCause::Infeasible);
                return;
            }
            // Escalations are pinned: a later, smaller prediction must not
            // undo the doubling chosen at kill time.
            self.requeue_pinned(run.task_idx, decision.into_alloc());
        }
    }

    /// A transiently-failed dispatch finished its backoff.
    pub(super) fn on_requeue(&mut self, task_idx: usize) {
        let state = &mut self.tasks[task_idx];
        if !state.is_dead() && !state.is_completed() {
            state
                .advance(TaskPhase::Ready)
                .expect("requeued task re-enters the queue");
            self.push_ready(task_idx);
        }
    }

    /// Dead-letter ready tasks that no live worker could host even when
    /// idle, once they have been stuck that way for more than the plan's
    /// `max_unplaceable_rounds` consecutive scheduling rounds (a shrinking
    /// pool can strand an escalated allocation forever).
    pub(super) fn enforce_unplaceable_strikes(&mut self) {
        let max = self.config.faults.max_unplaceable_rounds;
        if max == 0 || self.ready.is_empty() {
            return;
        }
        let ready: Vec<usize> = self
            .ready
            .iter()
            .filter(|&&e| self.ready_entry_live(e))
            .map(|&(t, _)| t)
            .collect();
        let mut doomed = Vec::new();
        for task_idx in ready {
            let alloc = self.ensure_alloc(task_idx);
            if self.pool.could_ever_place(&alloc) {
                self.tasks[task_idx].unplaceable_strikes = 0;
            } else {
                let state = &mut self.tasks[task_idx];
                state.unplaceable_strikes += 1;
                if state.unplaceable_strikes > max {
                    doomed.push(task_idx);
                }
            }
        }
        for task_idx in doomed {
            self.dead_letter(task_idx, DeadLetterCause::Unplaceable);
        }
    }
}
