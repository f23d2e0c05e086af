//! Structured event logging for simulated runs.
//!
//! A fully ordered record of everything the engine did: task lifecycle
//! transitions, worker churn, preemptions, injected faults. [`EventLog`] is
//! an [`EventSink`] — attach it with [`Simulation::with_sink`] and take it
//! back from [`Simulation::run_traced`] — and the reader of the event file
//! a `JsonlSink` writes ([`EventLog::from_jsonl`]). Useful for debugging
//! allocation behaviour and as a consistency oracle in tests
//! ([`EventLog::check_consistency`] verifies conservation laws that must
//! hold for any correct run).
//!
//! [`Simulation::with_sink`]: crate::Simulation::with_sink
//! [`Simulation::run_traced`]: crate::Simulation::run_traced

use crate::workers::WorkerId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use tora_alloc::task::TaskId;
use tora_alloc::trace::{AllocEvent, EventSink};

pub use tora_alloc::trace::{LogEntry, SimEvent};

/// The full ordered event log of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    entries: Vec<LogEntry>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, time_s: f64, event: SimEvent) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.time_s <= time_s),
            "log must be time-ordered"
        );
        self.entries.push(LogEntry { time_s, event });
    }

    /// All entries, in time order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count entries matching a predicate.
    pub fn count<F: Fn(&SimEvent) -> bool>(&self, pred: F) -> usize {
        self.entries.iter().filter(|e| pred(&e.event)).count()
    }

    /// Read an event file, as a `JsonlSink` writes it: the engine events
    /// as a log, and the allocator decisions between them in file order.
    /// Blank lines are skipped; a line that is neither kind is an error
    /// naming its 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<(Self, Vec<AllocEvent>), String> {
        let mut log = EventLog::new();
        let mut decisions = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if let Ok(entry) = serde_json::from_str(line) {
                log.entries.push(entry);
            } else {
                let event = serde_json::from_str(line).map_err(|e| {
                    format!(
                        "line {}: neither an engine nor an allocation event: {e}",
                        i + 1
                    )
                })?;
                decisions.push(event);
            }
        }
        Ok((log, decisions))
    }

    /// Verify the conservation laws of a completed run:
    ///
    /// * every dispatch terminates exactly once (completed, killed,
    ///   preempted, crashed, or timed out);
    /// * every submitted task reaches exactly one terminal state: one
    ///   completion XOR ending dead-lettered — where a dead-letter may be
    ///   withdrawn by a replay (and only then), so the dead-letter /
    ///   replay events of a task strictly alternate;
    /// * nothing dispatches, completes, or replays while *not* in the state
    ///   that permits it (no dispatch of a currently-dead task, no replay
    ///   of a live one);
    /// * a worker's events nest correctly (no dispatch after it left or
    ///   crashed);
    /// * qualifying facts follow what they qualify: straggle and record
    ///   drop/reject facts follow the task's completion, a replay success
    ///   follows the completion of a replayed task, and a capped retry is
    ///   followed by the task's dead letter with no dispatch between.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut open_dispatches: HashMap<TaskId, WorkerId> = HashMap::new();
        let mut completions: HashMap<TaskId, usize> = HashMap::new();
        let mut currently_dead: HashSet<TaskId> = HashSet::new();
        let mut ever_dead: HashSet<TaskId> = HashSet::new();
        let mut ever_replayed: HashSet<TaskId> = HashSet::new();
        let mut capped: HashSet<TaskId> = HashSet::new();
        let mut submitted: HashMap<TaskId, usize> = HashMap::new();
        let mut live_workers: HashMap<WorkerId, bool> = HashMap::new();
        for entry in &self.entries {
            match entry.event {
                SimEvent::TaskSubmitted { task } => {
                    *submitted.entry(task).or_insert(0) += 1;
                }
                SimEvent::TaskDispatched { task, worker, .. } => {
                    if !live_workers.get(&worker).copied().unwrap_or(false) {
                        return Err(format!("{task} dispatched to dead {worker:?}"));
                    }
                    if currently_dead.contains(&task) {
                        return Err(format!("{task} dispatched while dead-lettered"));
                    }
                    if capped.contains(&task) {
                        return Err(format!("{task} dispatched after its retries were capped"));
                    }
                    if open_dispatches.insert(task, worker).is_some() {
                        return Err(format!("{task} dispatched while already running"));
                    }
                }
                SimEvent::TaskCompleted { task, worker }
                | SimEvent::TaskKilled { task, worker }
                | SimEvent::TaskPreempted { task, worker }
                | SimEvent::TaskCrashed { task, worker }
                | SimEvent::TaskTimedOut { task, worker } => {
                    match open_dispatches.remove(&task) {
                        Some(w) if w == worker => {}
                        Some(w) => {
                            return Err(format!("{task} finished on {worker:?} but ran on {w:?}"))
                        }
                        None => return Err(format!("{task} finished without dispatch")),
                    }
                    if matches!(entry.event, SimEvent::TaskCompleted { .. }) {
                        if currently_dead.contains(&task) {
                            return Err(format!("{task} completed while dead-lettered"));
                        }
                        *completions.entry(task).or_insert(0) += 1;
                    }
                }
                SimEvent::TaskStraggled { task }
                | SimEvent::RecordDropped { task }
                | SimEvent::RecordRejected { task }
                | SimEvent::ReplayCompleted { task } => {
                    if !completions.contains_key(&task) {
                        return Err(format!("{task} has a completion fact but never completed"));
                    }
                    if matches!(entry.event, SimEvent::ReplayCompleted { .. })
                        && !ever_replayed.contains(&task)
                    {
                        return Err(format!("{task} completed a replay it never had"));
                    }
                }
                SimEvent::RetryCapped { task } => {
                    if open_dispatches.contains_key(&task) {
                        return Err(format!("{task} had its retries capped while running"));
                    }
                    capped.insert(task);
                }
                SimEvent::TaskDeadLettered {
                    task, unarrived, ..
                } => {
                    if open_dispatches.contains_key(&task) {
                        return Err(format!("{task} dead-lettered while running"));
                    }
                    if !currently_dead.insert(task) {
                        return Err(format!("{task} dead-lettered twice without a replay"));
                    }
                    if unarrived {
                        *submitted.entry(task).or_insert(0) += 1;
                    }
                    capped.remove(&task);
                    ever_dead.insert(task);
                }
                SimEvent::TaskReplayed { task } => {
                    if !currently_dead.remove(&task) {
                        return Err(format!("{task} replayed while not dead-lettered"));
                    }
                    ever_replayed.insert(task);
                }
                SimEvent::DispatchFailed { .. }
                | SimEvent::TaskCheckpointed { .. }
                | SimEvent::RackCrashed { .. } => {}
                SimEvent::WorkerJoined { worker, .. } => {
                    live_workers.insert(worker, true);
                }
                SimEvent::WorkerLeft { worker } | SimEvent::WorkerCrashed { worker } => {
                    live_workers.insert(worker, false);
                }
            }
        }
        if let Some(task) = capped.iter().min() {
            return Err(format!(
                "{task} had its retries capped but never dead-lettered"
            ));
        }
        if !open_dispatches.is_empty() {
            return Err(format!(
                "{} dispatches never terminated",
                open_dispatches.len()
            ));
        }
        for (task, count) in &submitted {
            if *count != 1 {
                return Err(format!("{task} submitted {count} times"));
            }
            let done = completions.get(task).copied().unwrap_or(0);
            let dead = usize::from(currently_dead.contains(task));
            if done + dead != 1 {
                return Err(format!(
                    "{task} reached {done} completions and ended \
                     {}dead-lettered (want exactly one terminal state)",
                    if dead == 1 { "" } else { "not " }
                ));
            }
        }
        for task in completions.keys() {
            if !submitted.contains_key(task) {
                return Err(format!("{task} completed without submission"));
            }
        }
        for task in &ever_dead {
            // A dependent dead-lettered by cascade may never have arrived
            // (so never logged a submission), but it must still end in
            // exactly one terminal state like everything else.
            if !submitted.contains_key(task) && !currently_dead.contains(task) {
                return Err(format!(
                    "unsubmitted {task} was dead-lettered but did not stay dead"
                ));
            }
        }
        Ok(())
    }
}

/// The log as a sink: every engine event is appended; allocator decisions
/// are not part of it.
impl EventSink for EventLog {
    fn emit(&mut self, _event: AllocEvent) {}

    fn emit_sim(&mut self, time_s: f64, event: &SimEvent) {
        self.push(time_s, event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tora_alloc::resources::ResourceVector;

    fn alloc() -> ResourceVector {
        ResourceVector::new(1.0, 1024.0, 1024.0)
    }

    fn well_formed() -> EventLog {
        let mut log = EventLog::new();
        let (t0, w0) = (TaskId(0), WorkerId(0));
        log.push(
            0.0,
            SimEvent::WorkerJoined {
                worker: w0,
                capacity: alloc(),
            },
        );
        log.push(0.0, SimEvent::TaskSubmitted { task: t0 });
        log.push(
            0.0,
            SimEvent::TaskDispatched {
                task: t0,
                worker: w0,
                attempt: 1,
                allocation: alloc(),
            },
        );
        log.push(
            5.0,
            SimEvent::TaskKilled {
                task: t0,
                worker: w0,
            },
        );
        log.push(
            5.0,
            SimEvent::TaskDispatched {
                task: t0,
                worker: w0,
                attempt: 2,
                allocation: alloc().scale(2.0),
            },
        );
        log.push(
            15.0,
            SimEvent::TaskCompleted {
                task: t0,
                worker: w0,
            },
        );
        log
    }

    #[test]
    fn consistent_log_passes() {
        well_formed().check_consistency().unwrap();
    }

    #[test]
    fn jsonl_roundtrip() {
        use tora_alloc::task::CategoryId;
        use tora_alloc::trace::{JsonlSink, PredictKind};
        let log = well_formed();
        let decision = AllocEvent::predict(CategoryId(0), PredictKind::Explore, alloc(), vec![]);
        let mut sink = JsonlSink::new(Vec::new());
        for (i, entry) in log.entries().iter().enumerate() {
            if i == 2 {
                sink.emit(decision.clone());
            }
            sink.emit_sim(entry.time_s, &entry.event);
        }
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert_eq!(text.lines().count(), log.len() + 1);
        let (parsed, decisions) = EventLog::from_jsonl(&text).unwrap();
        assert_eq!(parsed, log);
        assert_eq!(decisions, [decision]);
        let (empty, none) = EventLog::from_jsonl("\n").unwrap();
        assert!(empty.is_empty() && none.is_empty());
    }

    #[test]
    fn a_line_of_neither_kind_names_its_line_number() {
        let text = "{\"time_s\":0.0,\"event\":{\"TaskSubmitted\":{\"task\":0}}}\n\n{\"Nope\":{}}\n";
        let err = EventLog::from_jsonl(text).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
    }

    #[test]
    fn detects_double_dispatch() {
        let mut log = EventLog::new();
        log.push(
            0.0,
            SimEvent::WorkerJoined {
                worker: WorkerId(0),
                capacity: alloc(),
            },
        );
        log.push(0.0, SimEvent::TaskSubmitted { task: TaskId(1) });
        for _ in 0..2 {
            log.push(
                0.0,
                SimEvent::TaskDispatched {
                    task: TaskId(1),
                    worker: WorkerId(0),
                    attempt: 1,
                    allocation: alloc(),
                },
            );
        }
        assert!(log.check_consistency().is_err());
    }

    #[test]
    fn detects_dispatch_to_dead_worker() {
        let mut log = EventLog::new();
        log.push(
            0.0,
            SimEvent::WorkerJoined {
                worker: WorkerId(0),
                capacity: alloc(),
            },
        );
        log.push(
            1.0,
            SimEvent::WorkerLeft {
                worker: WorkerId(0),
            },
        );
        log.push(1.0, SimEvent::TaskSubmitted { task: TaskId(0) });
        log.push(
            2.0,
            SimEvent::TaskDispatched {
                task: TaskId(0),
                worker: WorkerId(0),
                attempt: 1,
                allocation: alloc(),
            },
        );
        assert!(log.check_consistency().is_err());
    }

    #[test]
    fn detects_unterminated_dispatch_and_missing_completion() {
        let mut log = EventLog::new();
        log.push(
            0.0,
            SimEvent::WorkerJoined {
                worker: WorkerId(0),
                capacity: alloc(),
            },
        );
        log.push(0.0, SimEvent::TaskSubmitted { task: TaskId(0) });
        log.push(
            0.0,
            SimEvent::TaskDispatched {
                task: TaskId(0),
                worker: WorkerId(0),
                attempt: 1,
                allocation: alloc(),
            },
        );
        assert!(log.check_consistency().is_err());
    }

    #[test]
    fn replay_cycle_is_consistent() {
        use tora_metrics::DeadLetterCause;
        let mut log = EventLog::new();
        let (t0, w0) = (TaskId(0), WorkerId(0));
        log.push(
            0.0,
            SimEvent::WorkerJoined {
                worker: w0,
                capacity: alloc(),
            },
        );
        log.push(0.0, SimEvent::TaskSubmitted { task: t0 });
        log.push(
            1.0,
            SimEvent::TaskDeadLettered {
                task: t0,
                cause: DeadLetterCause::Unplaceable,
                unarrived: false,
            },
        );
        log.push(2.0, SimEvent::TaskReplayed { task: t0 });
        log.push(
            3.0,
            SimEvent::TaskDispatched {
                task: t0,
                worker: w0,
                attempt: 1,
                allocation: alloc(),
            },
        );
        log.push(
            4.0,
            SimEvent::TaskCompleted {
                task: t0,
                worker: w0,
            },
        );
        log.check_consistency().unwrap();
        // Ending dead after a replayed round is also a valid terminal state.
        let mut redead = log.clone();
        redead.entries.truncate(3);
        redead.push(2.0, SimEvent::TaskReplayed { task: t0 });
        redead.push(
            3.0,
            SimEvent::TaskDeadLettered {
                task: t0,
                cause: DeadLetterCause::Unplaceable,
                unarrived: false,
            },
        );
        redead.check_consistency().unwrap();
    }

    #[test]
    fn detects_replay_and_dead_letter_misuse() {
        use tora_metrics::DeadLetterCause;
        let base = || {
            let mut log = EventLog::new();
            log.push(
                0.0,
                SimEvent::WorkerJoined {
                    worker: WorkerId(0),
                    capacity: alloc(),
                },
            );
            log.push(0.0, SimEvent::TaskSubmitted { task: TaskId(0) });
            log
        };
        // Replaying a live task.
        let mut log = base();
        log.push(1.0, SimEvent::TaskReplayed { task: TaskId(0) });
        assert!(log.check_consistency().is_err());
        // Double dead-letter without a replay between.
        let mut log = base();
        for t in [1.0, 2.0] {
            log.push(
                t,
                SimEvent::TaskDeadLettered {
                    task: TaskId(0),
                    cause: DeadLetterCause::Unplaceable,
                    unarrived: false,
                },
            );
        }
        assert!(log.check_consistency().is_err());
        // Dispatching a task that is currently dead-lettered.
        let mut log = base();
        log.push(
            1.0,
            SimEvent::TaskDeadLettered {
                task: TaskId(0),
                cause: DeadLetterCause::Unplaceable,
                unarrived: false,
            },
        );
        log.push(
            2.0,
            SimEvent::TaskDispatched {
                task: TaskId(0),
                worker: WorkerId(0),
                attempt: 1,
                allocation: alloc(),
            },
        );
        assert!(log.check_consistency().is_err());
    }

    #[test]
    fn count_filters_event_kinds() {
        let log = well_formed();
        assert_eq!(
            log.count(|e| matches!(e, SimEvent::TaskDispatched { .. })),
            2
        );
        assert_eq!(log.count(|e| matches!(e, SimEvent::TaskKilled { .. })), 1);
        assert_eq!(
            log.count(|e| matches!(e, SimEvent::TaskCompleted { .. })),
            1
        );
    }

    #[test]
    fn detects_misplaced_qualifying_facts() {
        use tora_metrics::DeadLetterCause;
        let (t0, w0) = (TaskId(0), WorkerId(0));
        let running = || {
            let mut log = EventLog::new();
            log.push(
                0.0,
                SimEvent::WorkerJoined {
                    worker: w0,
                    capacity: alloc(),
                },
            );
            log.push(0.0, SimEvent::TaskSubmitted { task: t0 });
            log.push(
                0.0,
                SimEvent::TaskDispatched {
                    task: t0,
                    worker: w0,
                    attempt: 1,
                    allocation: alloc(),
                },
            );
            log
        };
        let killed = || {
            let mut log = running();
            log.push(
                1.0,
                SimEvent::TaskKilled {
                    task: t0,
                    worker: w0,
                },
            );
            log
        };
        let dead = |unarrived| SimEvent::TaskDeadLettered {
            task: t0,
            cause: DeadLetterCause::AttemptsExhausted,
            unarrived,
        };
        // Completion facts before the completion.
        for fact in [
            SimEvent::TaskStraggled { task: t0 },
            SimEvent::RecordDropped { task: t0 },
            SimEvent::RecordRejected { task: t0 },
            SimEvent::ReplayCompleted { task: t0 },
        ] {
            let mut log = running();
            log.push(1.0, fact);
            assert!(log.check_consistency().is_err());
        }
        // A replay success for a task that was never replayed.
        let mut log = running();
        log.push(
            1.0,
            SimEvent::TaskCompleted {
                task: t0,
                worker: w0,
            },
        );
        log.push(1.0, SimEvent::ReplayCompleted { task: t0 });
        assert!(log.check_consistency().is_err());
        // A capped retry while running, or without its dead letter.
        let mut log = running();
        log.push(1.0, SimEvent::RetryCapped { task: t0 });
        assert!(log.check_consistency().is_err());
        let mut log = killed();
        log.push(1.0, SimEvent::RetryCapped { task: t0 });
        assert!(log.check_consistency().is_err());
        // ... or followed by another dispatch instead.
        log.push(
            1.0,
            SimEvent::TaskDispatched {
                task: t0,
                worker: w0,
                attempt: 2,
                allocation: alloc(),
            },
        );
        assert!(log.check_consistency().is_err());
        // Capped, then dead-lettered: consistent.
        let mut log = killed();
        log.push(1.0, SimEvent::RetryCapped { task: t0 });
        log.push(1.0, dead(false));
        log.check_consistency().unwrap();
        // A dead letter that accounts the submission stands alone, and
        // must not be submitted a second time.
        let mut log = EventLog::new();
        log.push(0.0, dead(true));
        log.check_consistency().unwrap();
        log.push(1.0, SimEvent::TaskSubmitted { task: t0 });
        assert!(log.check_consistency().is_err());
    }
}
