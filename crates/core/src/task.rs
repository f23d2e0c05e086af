//! Tasks and task categories.
//!
//! A dynamic workflow submits tasks at runtime; each task belongs to a
//! *category* (the function it packages — §III-B, e.g. `evaluate_mpnn`,
//! `processing`). The allocator treats categories independently (§IV-D),
//! because different categories do not necessarily correlate in resource
//! consumption.

use crate::resources::ResourceVector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a task category within a workflow.
///
/// Categories are small dense integers assigned by the workload generator;
/// `display_name`-style naming lives with the workflow, which
/// keeps this crate free of task-specific features (the *general-purpose*
/// design goal).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct CategoryId(pub u32);

impl fmt::Display for CategoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "category#{}", self.0)
    }
}

/// Identifies a task. Assigned in submission order starting at 0, which is
/// also the task's significance base (§V-A sets a record's significance to
/// its task ID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Deterministic, pre-run observable signals about one task.
///
/// These are the features a real workflow system knows *before* execution —
/// input sizes, position in the DAG — as opposed to the `(c, m, d, t)`
/// ground truth it only learns afterwards. Feature-conditioned estimators
/// (Ponder-style) key sub-states on them; category-global algorithms ignore
/// them entirely. The workloads crate mints them deterministically so
/// streamed and materialized workflows carry byte-identical features.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskFeatures {
    /// Input-size signal, normalized to `[0, 1]` (log-scaled input bytes
    /// relative to machine capacity, with generator jitter). `0` when the
    /// workload has no input-size model.
    #[serde(default)]
    pub input_signal: f64,
    /// DAG depth (longest dependency chain below this task); `0` for roots
    /// and for workflows without dependencies.
    #[serde(default)]
    pub depth: u32,
}

impl TaskFeatures {
    /// Features carrying only an input-size signal.
    pub fn with_input_signal(input_signal: f64) -> Self {
        TaskFeatures {
            input_signal,
            ..TaskFeatures::default()
        }
    }

    /// A copy with the DAG depth set.
    pub fn at_depth(mut self, depth: u32) -> Self {
        self.depth = depth;
        self
    }
}

/// Everything an estimator may condition a prediction on: the category plus
/// the task's pre-run feature vector and attempt history.
///
/// Category-global algorithms (the paper's five and the bucketing family)
/// ignore everything but the category — `From<CategoryId>` builds the
/// default-feature context those call sites use — while the learned
/// comparators ([`crate::featurebin`], [`crate::bandit`]) read the features.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskContext {
    /// The task's category (the only key the paper's algorithms use).
    pub category: CategoryId,
    /// Pre-run observable features.
    #[serde(default)]
    pub features: TaskFeatures,
    /// Completed attempts before this prediction (0 for a first attempt).
    #[serde(default)]
    pub attempt: u32,
}

impl TaskContext {
    /// A context with explicit features and no attempt history.
    pub fn new(category: CategoryId, features: TaskFeatures) -> Self {
        TaskContext {
            category,
            features,
            attempt: 0,
        }
    }
}

impl From<CategoryId> for TaskContext {
    fn from(category: CategoryId) -> Self {
        TaskContext::new(category, TaskFeatures::default())
    }
}

impl From<&TaskSpec> for TaskContext {
    fn from(spec: &TaskSpec) -> Self {
        TaskContext::new(spec.category, spec.features)
    }
}

/// The ground truth of one task: its peak consumption and duration.
///
/// The 4-tuple `(c, m, d, t)` is *not known* to the allocator before
/// execution (§II-B assumption 1); only the simulator's enforcement layer and
/// the metrics reader see it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Submission-order id, unique within a workflow.
    pub id: TaskId,
    /// The category (function) this task belongs to.
    pub category: CategoryId,
    /// Peak resource consumption during a successful run.
    pub peak: ResourceVector,
    /// Execution time of a successful run, in seconds.
    pub duration_s: f64,
    /// Pre-run observable features (unlike the fields above, these *are*
    /// visible to the allocator, via [`TaskContext`]).
    #[serde(default)]
    pub features: TaskFeatures,
}

impl TaskSpec {
    /// Build a task.
    ///
    /// # Panics
    /// If the peak is invalid (negative/NaN) or duration is not positive.
    pub fn new(id: u64, category: u32, peak: ResourceVector, duration_s: f64) -> Self {
        assert!(peak.is_valid(), "task peak must be finite and non-negative");
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "task duration must be positive"
        );
        // The time axis of the peak is the duration itself (the `t` of the
        // paper's 4-tuple), so time-managing allocators see it as a record.
        let peak = peak.with(crate::resources::ResourceKind::TimeS, duration_s);
        TaskSpec {
            id: TaskId(id),
            category: CategoryId(category),
            peak,
            duration_s,
            features: TaskFeatures::default(),
        }
    }

    /// A copy with the pre-run features set (builder style, used by the
    /// workload generators).
    pub fn with_features(mut self, features: TaskFeatures) -> Self {
        self.features = features;
        self
    }

    /// The prediction context of this task's first attempt.
    pub fn context(&self) -> TaskContext {
        TaskContext::new(self.category, self.features)
    }

    /// Significance of this task's resource record.
    ///
    /// §V-A: "we simply set it to the task ID, so the task's record with ID 1
    /// has a significance value of 1". We shift by one so the first task
    /// (ID 0) still contributes positive weight.
    pub fn significance(&self) -> f64 {
        (self.id.0 + 1) as f64
    }
}

/// A completed task's resource record, as reported by a worker back to the
/// bucketing manager (§IV-A step 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceRecord {
    /// The task that produced the record.
    pub task: TaskId,
    /// The category the record belongs to.
    pub category: CategoryId,
    /// Measured peak consumption.
    pub peak: ResourceVector,
    /// Measured execution time in seconds.
    pub duration_s: f64,
    /// Significance weight (§IV-A): higher = more recent/important.
    pub significance: f64,
    /// The pre-run features of the task that produced the record, so
    /// feature-conditioned estimators can key sub-states at observe time.
    #[serde(default)]
    pub features: TaskFeatures,
}

impl ResourceRecord {
    /// The record a successful run of `task` produces.
    pub fn from_task(task: &TaskSpec) -> Self {
        ResourceRecord {
            task: task.id,
            category: task.category,
            peak: task.peak,
            duration_s: task.duration_s,
            significance: task.significance(),
            features: task.features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn significance_is_id_plus_one() {
        let t = TaskSpec::new(0, 0, ResourceVector::new(1.0, 1.0, 1.0), 1.0);
        assert_eq!(t.significance(), 1.0);
        let t = TaskSpec::new(41, 0, ResourceVector::new(1.0, 1.0, 1.0), 1.0);
        assert_eq!(t.significance(), 42.0);
    }

    #[test]
    fn record_mirrors_task() {
        let t = TaskSpec::new(7, 3, ResourceVector::new(2.0, 300.0, 10.0), 12.5);
        let r = ResourceRecord::from_task(&t);
        assert_eq!(r.task, TaskId(7));
        assert_eq!(r.category, CategoryId(3));
        assert_eq!(r.peak, t.peak);
        assert_eq!(r.duration_s, 12.5);
        assert_eq!(r.significance, 8.0);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        TaskSpec::new(0, 0, ResourceVector::new(1.0, 1.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "peak must be finite")]
    fn invalid_peak_rejected() {
        TaskSpec::new(0, 0, ResourceVector::new(-1.0, 1.0, 1.0), 1.0);
    }

    #[test]
    fn features_default_and_round_trip() {
        // Pre-feature JSON (no `features` key) still deserializes: the
        // serde default keeps old traces and snapshots loadable.
        let spec = TaskSpec::new(3, 1, ResourceVector::new(1.0, 2.0, 3.0), 4.0);
        let json = serde_json::to_string(&spec).unwrap();
        let legacy = json.replace(",\"features\":{\"input_signal\":0.0,\"depth\":0}", "");
        assert_ne!(legacy, json, "features must serialize");
        let parsed: TaskSpec = serde_json::from_str(&legacy).expect("legacy spec parses");
        assert_eq!(parsed, spec);
        let spec = spec.with_features(TaskFeatures::with_input_signal(0.5).at_depth(2));
        let ctx = spec.context();
        assert_eq!(ctx.category, CategoryId(1));
        assert_eq!(ctx.features.depth, 2);
        assert_eq!(ctx.attempt, 0);
        let r = ResourceRecord::from_task(&spec);
        assert_eq!(r.features, spec.features);
        let round: TaskContext =
            serde_json::from_str(&serde_json::to_string(&ctx).unwrap()).unwrap();
        assert_eq!(round, ctx);
        // A bare-category context carries default features.
        let bare: TaskContext = CategoryId(7).into();
        assert_eq!(bare.features, TaskFeatures::default());
    }

    #[test]
    fn ids_order_and_display() {
        assert!(TaskId(1) < TaskId(2));
        assert!(CategoryId(0) < CategoryId(1));
        assert_eq!(TaskId(5).to_string(), "task#5");
        assert_eq!(CategoryId(2).to_string(), "category#2");
    }
}
