//! # tora-alloc — adaptive task-oriented resource allocation
//!
//! A from-scratch Rust implementation of the allocation algorithms from
//! *"Adaptive Task-Oriented Resource Allocation for Large Dynamic Workflows
//! on Opportunistic Resources"* (Phung & Thain, IPDPS 2024):
//!
//! * **Greedy Bucketing** ([`greedy::GreedyBucketing`]) and
//!   **Exhaustive Bucketing** ([`exhaustive::ExhaustiveBucketing`]) — the
//!   paper's two novel, online, prior-free, general-purpose allocation
//!   algorithms;
//! * the five comparators of its evaluation ([`baselines`]): Whole Machine,
//!   Max Seen, Min Waste, Max Throughput, and Quantized Bucketing;
//! * the surrounding allocator machinery ([`allocator::Allocator`]):
//!   per-category and per-resource estimator states, the exploratory mode,
//!   probabilistic bucket selection and retry escalation.
//!
//! ## The problem
//!
//! Dynamic workflow systems generate tasks at runtime whose resource needs
//! (cores, memory, disk) are unknown until they finish — yet every task must
//! be given an allocation *before* it runs, and a task exceeding its
//! allocation is killed and retried with a bigger one. Over-allocation
//! wastes resources through internal fragmentation; under-allocation wastes
//! entire failed attempts.
//!
//! ## Quick start
//!
//! ```
//! use tora_alloc::allocator::{Allocator, AlgorithmKind};
//! use tora_alloc::resources::ResourceVector;
//! use tora_alloc::task::{CategoryId, ResourceRecord, TaskSpec};
//!
//! let mut allocator = Allocator::new(AlgorithmKind::ExhaustiveBucketing, 42);
//! let category = CategoryId(0);
//!
//! // Feed completed-task records (normally reported by workers)...
//! for id in 0..50 {
//!     let peak = ResourceVector::new(1.0, if id % 2 == 0 { 450.0 } else { 580.0 }, 306.0);
//!     let task = TaskSpec::new(id, category.0, peak, 60.0);
//!     allocator.observe(&ResourceRecord::from_task(&task));
//! }
//!
//! // ...and ask for the next task's allocation.
//! let alloc = allocator.predict_first(category);
//! assert!(alloc.memory_mb() >= 450.0);
//! assert!(alloc.memory_mb() <= 650.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocator;
pub mod bandit;
pub mod baselines;
pub mod bucket;
pub mod cost;
pub mod estimator;
pub mod exhaustive;
pub mod featurebin;
pub mod feedback;
pub mod greedy;
pub mod kmeans;
pub mod oplog;
pub mod partition;
pub mod policy;
pub mod record;
pub mod resources;
pub mod task;
pub mod trace;

pub use allocator::{
    AlgorithmKind, AllocationDecision, Allocator, AllocatorBuilder, AllocatorConfig,
    EstimatorFactory, ExploratoryPolicy,
};
pub use bandit::SemiBandit;
pub use bucket::{Bucket, BucketSet};
pub use estimator::{AllocSource, Prediction, RebucketInfo, ValueEstimator};
pub use exhaustive::ExhaustiveBucketing;
pub use featurebin::FeatureBinned;
pub use feedback::{AttemptFeedback, FaultPolicy, FeedbackState, FeedbackWindow};
pub use greedy::GreedyBucketing;
pub use kmeans::KMeansBucketing;
pub use oplog::{AllocLog, AllocOp};
pub use partition::Partitioner;
pub use policy::BucketingEstimator;
pub use record::{RecordList, ScalarRecord};
pub use resources::{ResourceKind, ResourceMask, ResourceVector, WorkerSpec};
pub use task::{CategoryId, ResourceRecord, TaskContext, TaskFeatures, TaskId, TaskSpec};
pub use trace::{
    AllocEvent, AxisProvenance, EventSink, JsonlSink, MemorySink, NoopSink, PredictKind, TraceStats,
};
