//! The workflow container: a named, ordered stream of tasks plus category
//! metadata and the worker shape the workflow expects.

use crate::error::WorkloadError;
use serde::{Deserialize, Serialize};
use tora_alloc::resources::WorkerSpec;
use tora_alloc::task::{CategoryId, TaskSpec};

/// A fully materialized workflow trace: every task's (hidden) ground truth in
/// submission order.
///
/// The allocator never sees the peaks directly — only completed-task records
/// — so generating the whole trace up front does not violate the paper's
/// online setting; it simply plays the role of the physical experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workflow {
    /// Workflow name as used in the paper's figures (e.g. `normal`,
    /// `colmena-xtb`).
    pub name: String,
    /// Category display names; index is the [`CategoryId`].
    pub categories: Vec<String>,
    /// Tasks in submission order; `tasks[i].id == i`.
    pub tasks: Vec<TaskSpec>,
    /// Worker shape tasks are meant to run on (16 cores / 64 GB / 64 GB in
    /// every paper experiment).
    pub worker: WorkerSpec,
    /// Dependency lists: `dependencies[i]` holds the predecessor task ids of
    /// task `i`, each strictly smaller than `i` (dynamic workflows generate
    /// dependents after their inputs, so the submission order is always a
    /// topological order — Fig. 1's workflow manager "constructs a
    /// dependency graph between tasks and passes ready tasks on"). Empty
    /// when the workflow is a bag of independent tasks.
    #[serde(default)]
    pub dependencies: Vec<Vec<u64>>,
}

impl Workflow {
    /// Build and validate a workflow.
    ///
    /// # Panics
    /// If task ids are not `0..n` in order, a category id is out of range,
    /// or any task does not fit the worker (such a task could never succeed
    /// under §II-B assumption 4).
    pub fn new(
        name: impl Into<String>,
        categories: Vec<String>,
        tasks: Vec<TaskSpec>,
        worker: WorkerSpec,
    ) -> Self {
        let wf = Workflow {
            name: name.into(),
            categories,
            tasks,
            worker,
            dependencies: Vec::new(),
        };
        wf.validate().expect("invalid workflow");
        wf
    }

    /// Attach dependency lists (`deps[i]` = predecessor ids of task `i`)
    /// and stamp each task's DAG depth (longest dependency chain below it)
    /// into its feature vector, so depth-conditioned estimators see the
    /// same features here as on the streaming path.
    ///
    /// # Panics
    /// If the result is invalid (wrong length, forward/self dependencies).
    pub fn with_dependencies(mut self, dependencies: Vec<Vec<u64>>) -> Self {
        self.dependencies = dependencies;
        self.validate().expect("invalid dependencies");
        let mut depth = vec![0u32; self.tasks.len()];
        for i in 0..self.tasks.len() {
            let d = self
                .deps_of(i)
                .iter()
                .map(|&p| depth[p as usize] + 1)
                .max()
                .unwrap_or(0);
            depth[i] = d;
            self.tasks[i].features.depth = d;
        }
        self
    }

    /// Predecessors of one task (empty for independent tasks).
    pub fn deps_of(&self, task: usize) -> &[u64] {
        self.dependencies
            .get(task)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether any task has predecessors.
    pub fn has_dependencies(&self) -> bool {
        self.dependencies.iter().any(|d| !d.is_empty())
    }

    /// Check the structural invariants described on [`Workflow::new`].
    pub fn validate(&self) -> Result<(), WorkloadError> {
        for (i, t) in self.tasks.iter().enumerate() {
            if t.id.0 != i as u64 {
                return Err(WorkloadError::invalid(format!(
                    "task at position {i} has id {}",
                    t.id
                )));
            }
            if t.category.0 as usize >= self.categories.len() {
                return Err(WorkloadError::invalid(format!(
                    "{}: category {} unknown",
                    t.id, t.category
                )));
            }
            if !self.worker.capacity.dominates(&t.peak) {
                return Err(WorkloadError::invalid(format!(
                    "{}: peak {} exceeds worker capacity {}",
                    t.id, t.peak, self.worker.capacity
                )));
            }
        }
        if !self.dependencies.is_empty() {
            if self.dependencies.len() != self.tasks.len() {
                return Err(WorkloadError::invalid(format!(
                    "dependency lists cover {} of {} tasks",
                    self.dependencies.len(),
                    self.tasks.len()
                )));
            }
            for (i, deps) in self.dependencies.iter().enumerate() {
                for &d in deps {
                    if d >= i as u64 {
                        return Err(WorkloadError::invalid(format!(
                            "task {i} depends on {d}: predecessors must be \
                             earlier submissions (the submission order is the \
                             topological order)"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workflow has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Display name of a category.
    pub fn category_name(&self, category: CategoryId) -> &str {
        &self.categories[category.0 as usize]
    }

    /// Tasks of one category, in submission order.
    #[cfg(test)]
    pub fn tasks_of(&self, category: CategoryId) -> impl Iterator<Item = &TaskSpec> {
        self.tasks.iter().filter(move |t| t.category == category)
    }

    /// Count tasks per category.
    pub fn category_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.categories.len()];
        for t in &self.tasks {
            counts[t.category.0 as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tora_alloc::resources::ResourceVector;

    fn task(id: u64, category: u32) -> TaskSpec {
        TaskSpec::new(id, category, ResourceVector::new(1.0, 100.0, 10.0), 5.0)
    }

    #[test]
    fn valid_workflow_roundtrip() {
        let wf = Workflow::new(
            "demo",
            vec!["a".into(), "b".into()],
            vec![task(0, 0), task(1, 1), task(2, 0)],
            WorkerSpec::paper_default(),
        );
        assert_eq!(wf.len(), 3);
        assert_eq!(wf.category_counts(), vec![2, 1]);
        assert_eq!(wf.category_name(CategoryId(1)), "b");
        assert_eq!(wf.tasks_of(CategoryId(0)).count(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid workflow")]
    fn out_of_order_ids_rejected() {
        Workflow::new(
            "bad",
            vec!["a".into()],
            vec![task(1, 0)],
            WorkerSpec::paper_default(),
        );
    }

    #[test]
    #[should_panic(expected = "invalid workflow")]
    fn unknown_category_rejected() {
        Workflow::new(
            "bad",
            vec!["a".into()],
            vec![task(0, 3)],
            WorkerSpec::paper_default(),
        );
    }

    #[test]
    fn oversized_task_rejected() {
        let huge = TaskSpec::new(0, 0, ResourceVector::new(64.0, 100.0, 10.0), 5.0);
        let wf = Workflow {
            name: "bad".into(),
            categories: vec!["a".into()],
            tasks: vec![huge],
            worker: WorkerSpec::paper_default(),
            dependencies: Vec::new(),
        };
        assert!(wf.validate().is_err());
    }

    #[test]
    fn dependencies_validate_and_query() {
        let wf = Workflow::new(
            "dag",
            vec!["a".into()],
            vec![task(0, 0), task(1, 0), task(2, 0)],
            WorkerSpec::paper_default(),
        )
        .with_dependencies(vec![vec![], vec![0], vec![0, 1]]);
        assert!(wf.has_dependencies());
        assert_eq!(wf.deps_of(0), &[] as &[u64]);
        assert_eq!(wf.deps_of(2), &[0, 1]);
        // A dependency-free workflow reports none.
        let free = Workflow::new(
            "flat",
            vec!["a".into()],
            vec![task(0, 0)],
            WorkerSpec::paper_default(),
        );
        assert!(!free.has_dependencies());
        assert_eq!(free.deps_of(0), &[] as &[u64]);
    }

    #[test]
    #[should_panic(expected = "invalid dependencies")]
    fn forward_dependency_rejected() {
        Workflow::new(
            "bad-dag",
            vec!["a".into()],
            vec![task(0, 0), task(1, 0)],
            WorkerSpec::paper_default(),
        )
        .with_dependencies(vec![vec![1], vec![]]);
    }

    #[test]
    #[should_panic(expected = "invalid dependencies")]
    fn self_dependency_rejected() {
        Workflow::new(
            "bad-dag",
            vec!["a".into()],
            vec![task(0, 0)],
            WorkerSpec::paper_default(),
        )
        .with_dependencies(vec![vec![0]]);
    }

    #[test]
    #[should_panic(expected = "invalid dependencies")]
    fn wrong_length_dependency_list_rejected() {
        Workflow::new(
            "bad-dag",
            vec!["a".into()],
            vec![task(0, 0), task(1, 0)],
            WorkerSpec::paper_default(),
        )
        .with_dependencies(vec![vec![]]);
    }
}
