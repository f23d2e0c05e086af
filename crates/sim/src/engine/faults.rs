//! Fault-injection glue: abrupt worker crashes, correlated rack crashes and
//! the straggler model, all drawing from the dedicated fault stream.
//!
//! Crashes are harsher than churn departures: every running attempt is
//! *lost* — charged for its elapsed time, counted against the task's
//! attempt budget, and its resource record dies with the worker. When the
//! plan enables checkpoint/restart (`checkpointed_fraction > 0`), a crashed
//! attempt first banks that fraction of the work it actually finished, so
//! the retry resumes from the checkpoint instead of from zero.

use super::queue::Event;
use super::Simulation;
use crate::enforcement::AttemptVerdict;
use crate::log::SimEvent;
use crate::sampling::exponential_interval_s;
use crate::workers::WorkerId;
use rand::Rng;
use tora_alloc::feedback::AttemptFeedback;
use tora_alloc::resources::ResourceMask;
use tora_alloc::trace::EventSink;
use tora_metrics::{AttemptCause, AttemptOutcome, DeadLetterCause};

impl<S: EventSink> Simulation<S> {
    /// Decide at dispatch time how the attempt will end, folding the
    /// straggler model over the enforcement verdict: a straggling attempt
    /// runs at `straggler_multiplier ×` its charged time, and a watchdog
    /// kills anything that would run past `straggler_timeout_s`.
    ///
    /// The third element is the attempt's *work rate* — nominal task
    /// seconds finished per wall-clock second — which checkpoint/restart
    /// uses to price salvaged progress: full speed for ordinary attempts,
    /// `1 / multiplier` for a straggling one, and zero for a hung attempt
    /// (a watchdog victim made no trustworthy progress to checkpoint).
    pub(super) fn inject_straggler(
        &mut self,
        verdict: AttemptVerdict,
    ) -> (AttemptVerdict, AttemptCause, f64) {
        let plan = self.config.faults;
        let base_cause = if verdict.success {
            AttemptCause::Completed
        } else {
            AttemptCause::ResourceExhausted
        };
        if !(plan.straggler_rate > 0.0 && self.fault_rng.gen::<f64>() < plan.straggler_rate) {
            return (verdict, base_cause, 1.0);
        }
        let stretched = plan.straggler_multiplier * verdict.charged_time_s;
        if stretched <= plan.straggler_timeout_s {
            // Still reaches its natural end (completion or enforcement
            // kill), just later: the extra allocation·time is drag waste.
            let cause = if verdict.success {
                AttemptCause::StragglerCompleted
            } else {
                base_cause
            };
            let work_rate = if stretched > 0.0 {
                verdict.charged_time_s / stretched
            } else {
                1.0
            };
            (
                AttemptVerdict {
                    charged_time_s: stretched,
                    ..verdict
                },
                cause,
                work_rate,
            )
        } else {
            // Hangs past the watchdog: killed at the timeout, with nothing
            // learned about which resource (if any) was the problem.
            (
                AttemptVerdict {
                    success: false,
                    charged_time_s: plan.straggler_timeout_s,
                    exhausted: ResourceMask::NONE,
                },
                AttemptCause::StragglerTimeout,
                0.0,
            )
        }
    }

    /// Schedule the next worker crash (exponential inter-arrival), when the
    /// fault plan has crashes enabled.
    pub(super) fn schedule_crash(&mut self) {
        if let Some(mean) = self.config.faults.crash_mean_interval_s {
            let dt = exponential_interval_s(&mut self.fault_rng, mean);
            self.events.schedule(self.now + dt.max(1e-9), Event::Crash);
        }
    }

    /// Crash one worker abruptly. Unlike a graceful churn departure, every
    /// running attempt is *lost*: it is charged for its elapsed time, counts
    /// against the task's attempt budget, and teaches the allocator nothing
    /// (the record died with the worker). Crashes ignore the churn band's
    /// minimum — an opportunistic pool offers no such guarantee.
    pub(super) fn crash_worker(&mut self, id: WorkerId) {
        // The rack must be read before the worker leaves the pool: it is
        // the crash attribution rack avoidance learns from.
        let rack = self.pool.get(id).map(|w| w.spec.rack);
        for (_, victim) in self.drain_victims(id) {
            let run = self.running.remove(victim).expect("victim listed");
            let elapsed = self.now - run.start;
            self.record(SimEvent::TaskCrashed {
                task: self.specs[run.task_idx].id,
                worker: id,
            });
            self.report_outcome(
                self.specs[run.task_idx].category,
                AttemptFeedback::Crash,
                rack,
            );
            let mut attempt =
                AttemptOutcome::failure_with_cause(run.alloc, elapsed, AttemptCause::WorkerCrash);
            let fraction = self.config.faults.checkpointed_fraction;
            if fraction > 0.0 {
                let state = &mut self.tasks[run.task_idx];
                let salvaged =
                    state.bank_salvage(fraction, elapsed, run.work_rate, run.remaining_s);
                if salvaged > 0.0 {
                    attempt.salvaged_s = salvaged;
                    self.record(SimEvent::TaskCheckpointed {
                        task: self.specs[run.task_idx].id,
                        salvaged_s: salvaged,
                    });
                }
            }
            let state = &mut self.tasks[run.task_idx];
            self.attempt_arena.push(&mut state.attempts, attempt);
            if self.attempts_spent(run.task_idx) {
                self.dead_letter(run.task_idx, DeadLetterCause::AttemptsExhausted);
            } else {
                // The crash says nothing about the allocation: resubmit
                // with the same (pinned) one.
                self.requeue_pinned(run.task_idx, run.alloc);
            }
        }
        self.pool.leave(id);
        self.record(SimEvent::WorkerCrashed { worker: id });
        let n = self.pool.len();
        self.worker_range = (self.worker_range.0.min(n), self.worker_range.1.max(n));
    }

    /// An independent single-worker crash event.
    pub(super) fn on_crash(&mut self) {
        if let Some(id) = self.pool.random_worker(&mut self.fault_rng) {
            self.crash_worker(id);
        }
        // Keep the crash process alive only while it can ever strike again:
        // an empty pool with churn disabled never repopulates, and an
        // eternal self-rescheduling event would keep the run alive forever.
        if !(self.pool.is_empty() && self.config.churn.mean_interval_s.is_none()) {
            self.schedule_crash();
        }
    }

    /// Schedule the next correlated rack crash, when the fault plan has
    /// them enabled.
    pub(super) fn schedule_rack_crash(&mut self) {
        if let Some(mean) = self.config.faults.rack_crash_mean_interval_s {
            let dt = exponential_interval_s(&mut self.fault_rng, mean);
            self.events
                .schedule(self.now + dt.max(1e-9), Event::RackCrash);
        }
    }

    /// A correlated failure: one random live worker is struck, and every
    /// other live worker in its rack goes down with it (shared switch,
    /// shared PDU). Each victim is a full abrupt crash — attempts lost,
    /// records lost, attempt budgets charged.
    pub(super) fn on_rack_crash(&mut self) {
        if let Some(struck) = self.pool.random_worker(&mut self.fault_rng) {
            let rack = self.pool.get(struck).expect("live worker").spec.rack;
            self.record(SimEvent::RackCrashed { rack });
            let victims: Vec<WorkerId> = self
                .pool
                .workers()
                .filter(|(_, w)| w.spec.rack == rack)
                .map(|(id, _)| id)
                .collect();
            for id in victims {
                self.crash_worker(id);
            }
        }
        // Same liveness guard as the single-crash process.
        if !(self.pool.is_empty() && self.config.churn.mean_interval_s.is_none()) {
            self.schedule_rack_crash();
        }
    }
}
