//! Engine lifecycle events: every submission, dispatch, kill, churn step,
//! injected fault and dead letter of a simulated run, delivered through
//! [`super::EventSink::emit_sim`]. The engine's counters are a fold over
//! this stream, so a sink sees exactly what the engine counted.
//! [`LogEntry`] is one event with its time stamp, the shape an engine event
//! takes as a line of an event file.

use crate::resources::ResourceVector;
use crate::task::TaskId;
use serde::{Deserialize, Serialize};

/// Identifies a worker within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerId(pub u64);

/// Why a task was dead-lettered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeadLetterCause {
    /// Burned through the configured attempt budget.
    AttemptsExhausted,
    /// Exceeded the transient-dispatch-failure retry budget.
    DispatchRetriesExhausted,
    /// Its allocation exceeds the total capacity of every live worker.
    Unplaceable,
    /// A retry could not grow any exhausted axis: the task does not fit the
    /// machine and every further attempt would reproduce the same kill.
    Infeasible,
    /// A dependency was dead-lettered, so this task can never become ready.
    DependencyDeadLettered,
    /// The run stalled with no event that could ever make progress.
    Stalled,
}

impl DeadLetterCause {
    /// Whether a recovered pool can sensibly retry the task: the
    /// abandonment was an environment *shortage* (no worker big enough, a
    /// flaky dispatch path), not a structural impossibility. Attempt-budget
    /// and infeasibility causes stay terminal — re-running would reproduce
    /// the same failure — and a cascaded dependency dead-letter stays dead
    /// with its missing input.
    pub fn replayable(self) -> bool {
        matches!(
            self,
            DeadLetterCause::Unplaceable | DeadLetterCause::DispatchRetriesExhausted
        )
    }

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            DeadLetterCause::AttemptsExhausted => "attempts-exhausted",
            DeadLetterCause::DispatchRetriesExhausted => "dispatch-retries-exhausted",
            DeadLetterCause::Unplaceable => "unplaceable",
            DeadLetterCause::Infeasible => "infeasible",
            DeadLetterCause::DependencyDeadLettered => "dependency-dead-lettered",
            DeadLetterCause::Stalled => "stalled",
        }
    }
}

/// One engine lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// A task was submitted (became ready for the first time).
    TaskSubmitted {
        /// The task.
        task: TaskId,
    },
    /// A task attempt was placed on a worker.
    TaskDispatched {
        /// The task.
        task: TaskId,
        /// Destination worker.
        worker: WorkerId,
        /// Attempt number (1-based).
        attempt: usize,
        /// The allocation it holds.
        allocation: ResourceVector,
    },
    /// A task attempt finished successfully.
    TaskCompleted {
        /// The task.
        task: TaskId,
        /// The worker it ran on.
        worker: WorkerId,
    },
    /// The attempt that just completed had straggled: it ran slow but
    /// finished within the straggler timeout.
    TaskStraggled {
        /// The task.
        task: TaskId,
    },
    /// A task attempt was killed for over-consuming its allocation.
    TaskKilled {
        /// The task.
        task: TaskId,
        /// The worker it ran on.
        worker: WorkerId,
    },
    /// The attempt just killed spent the attempt budget: the task is
    /// dead-lettered instead of being given a retry prediction.
    RetryCapped {
        /// The task.
        task: TaskId,
    },
    /// A task attempt was lost because its worker departed.
    TaskPreempted {
        /// The task.
        task: TaskId,
        /// The departing worker.
        worker: WorkerId,
    },
    /// A worker joined the pool.
    WorkerJoined {
        /// The worker.
        worker: WorkerId,
        /// The capacity it grants.
        capacity: ResourceVector,
    },
    /// A worker left the pool.
    WorkerLeft {
        /// The worker.
        worker: WorkerId,
    },
    /// A worker crashed (abrupt departure; running attempts lost their
    /// records).
    WorkerCrashed {
        /// The worker.
        worker: WorkerId,
    },
    /// A correlated failure struck one rack; its workers' crashes follow.
    RackCrashed {
        /// The rack.
        rack: u32,
    },
    /// A task attempt was lost when its worker crashed.
    TaskCrashed {
        /// The task.
        task: TaskId,
        /// The crashed worker.
        worker: WorkerId,
    },
    /// A task attempt straggled past the timeout and was killed.
    TaskTimedOut {
        /// The task.
        task: TaskId,
        /// The worker it ran on.
        worker: WorkerId,
    },
    /// A dispatch attempt failed transiently; the task was re-queued with
    /// backoff.
    DispatchFailed {
        /// The task.
        task: TaskId,
    },
    /// A completion whose resource record never reached the allocator.
    RecordDropped {
        /// The task.
        task: TaskId,
    },
    /// A completion whose resource record the allocator rejected at its
    /// observe validation boundary.
    RecordRejected {
        /// The task.
        task: TaskId,
    },
    /// A task was abandoned: it will never complete (unless replayed).
    TaskDeadLettered {
        /// The task.
        task: TaskId,
        /// Why it was abandoned.
        cause: DeadLetterCause,
        /// Doomed before it ever arrived: no `TaskSubmitted` precedes this
        /// event, which accounts the submission instead.
        unarrived: bool,
    },
    /// A dead-lettered task was re-admitted after the pool recovered.
    TaskReplayed {
        /// The task.
        task: TaskId,
    },
    /// The task that just completed had been replayed out of the
    /// dead-letter channel.
    ReplayCompleted {
        /// The task.
        task: TaskId,
    },
    /// A crashed attempt banked a checkpoint: the salvaged share of its
    /// finished work carries forward to the retry.
    TaskCheckpointed {
        /// The task.
        task: TaskId,
        /// Nominal task-seconds salvaged by this checkpoint.
        salvaged_s: f64,
    },
}

/// One engine event stamped with simulated time: a line of an event file
/// (see [`super::JsonlSink`]), `{"time_s":…,"event":…}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Simulated time, seconds.
    pub time_s: f64,
    /// The event.
    pub event: SimEvent,
}
