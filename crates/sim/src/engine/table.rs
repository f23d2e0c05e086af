//! The engine's per-task table.
//!
//! A task's row — its spec, its lifecycle [`TaskState`] and the ids of the
//! tasks waiting on it — lives from intake until the *completed prefix*
//! passes it: a row retires once it and every row below it are
//! `Completed`. The rows sit in one `VecDeque` behind a single `base`
//! offset (the id of the oldest live row), so the table's memory follows
//! the live window of the run — from the oldest unfinished task to the
//! newest pulled one — rather than the number of tasks it ever took in.
//!
//! Retiring only a completed prefix is what makes it safe:
//!
//! * `Completed` has no successors, so nothing in the engine asks for a
//!   completed task's row again — except dependency wiring, which treats an
//!   id below `base` as completed ([`TaskTable::is_completed`]).
//! * A dead-lettered row stays: replay may re-admit it. So does every row
//!   above it, and above any other live row.
//!
//! Indexing a retired row is an engine bug; debug builds assert on it with
//! the offending id.

use super::lifecycle::TaskState;
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};
use tora_alloc::task::TaskSpec;

/// One task's row.
struct TaskRow {
    spec: TaskSpec,
    state: TaskState,
    /// Tasks that were still waiting on this one when they were taken in
    /// (the reverse dependency edges Fig. 1's resolution walks).
    dependents: Vec<usize>,
}

/// Rows by task id, from the oldest task not yet passed by the completed
/// prefix to the newest one taken in. Indexing yields the task's
/// [`TaskState`]; [`TaskTable::spec`] and [`TaskTable::dependents_mut`]
/// reach the rest of the row.
pub(super) struct TaskTable {
    rows: VecDeque<TaskRow>,
    /// Id of `rows[0]`: every task below it has completed and retired.
    base: usize,
    /// Most rows ever live at once.
    #[cfg(test)]
    peak_live: usize,
}

impl TaskTable {
    pub(super) fn new() -> Self {
        TaskTable {
            rows: VecDeque::new(),
            base: 0,
            #[cfg(test)]
            peak_live: 0,
        }
    }

    /// Tasks taken in so far, retired ones included: the next task's id.
    pub(super) fn len(&self) -> usize {
        self.base + self.rows.len()
    }

    /// Id of the oldest live row.
    pub(super) fn base(&self) -> usize {
        self.base
    }

    /// Append the next task's row.
    pub(super) fn push(&mut self, spec: TaskSpec, state: TaskState) {
        self.rows.push_back(TaskRow {
            spec,
            state,
            dependents: Vec::new(),
        });
        #[cfg(test)]
        {
            self.peak_live = self.peak_live.max(self.rows.len());
        }
    }

    /// Whether task `id` has completed. A retired id has, by the retire
    /// rule; this is the one read that legitimately reaches below `base`
    /// (a dependency of a newly taken-in task).
    pub(super) fn is_completed(&self, id: usize) -> bool {
        id < self.base || self[id].is_completed()
    }

    /// Task `id`'s spec.
    pub(super) fn spec(&self, id: usize) -> &TaskSpec {
        &self.row(id).spec
    }

    /// The tasks waiting on task `id`.
    pub(super) fn dependents_mut(&mut self, id: usize) -> &mut Vec<usize> {
        &mut self.row_mut(id).dependents
    }

    /// Retire the completed prefix: pop rows from the front while they are
    /// `Completed`. Each row is popped once, so this is amortized O(1) per
    /// completion.
    pub(super) fn retire_completed(&mut self) {
        while self
            .rows
            .front()
            .is_some_and(|row| row.state.is_completed())
        {
            self.rows.pop_front();
            self.base += 1;
        }
    }

    /// Rows currently live.
    #[cfg(test)]
    pub(super) fn live(&self) -> usize {
        self.rows.len()
    }

    /// Most rows ever live at once over the table's life.
    #[cfg(test)]
    pub(super) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Position of task `id`'s row in `rows`.
    fn slot(&self, id: usize) -> usize {
        debug_assert!(
            id >= self.base,
            "task {id} read after it retired (oldest live row {})",
            self.base
        );
        id - self.base
    }

    fn row(&self, id: usize) -> &TaskRow {
        &self.rows[self.slot(id)]
    }

    fn row_mut(&mut self, id: usize) -> &mut TaskRow {
        let slot = self.slot(id);
        &mut self.rows[slot]
    }
}

impl Index<usize> for TaskTable {
    type Output = TaskState;

    fn index(&self, id: usize) -> &TaskState {
        &self.row(id).state
    }
}

impl IndexMut<usize> for TaskTable {
    fn index_mut(&mut self, id: usize) -> &mut TaskState {
        &mut self.row_mut(id).state
    }
}
