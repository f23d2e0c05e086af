//! # tora — Task-Oriented Resource Allocation for dynamic workflows
//!
//! A full Rust reproduction of *"Adaptive Task-Oriented Resource Allocation
//! for Large Dynamic Workflows on Opportunistic Resources"* (Phung & Thain,
//! IPDPS 2024). This facade crate re-exports the workspace:
//!
//! * [`alloc`] — the paper's contribution: Greedy/Exhaustive Bucketing, the
//!   five comparator algorithms, and the adaptive allocator around them;
//! * [`sim`] — the dynamic-workflow execution substrate: a discrete-event
//!   engine with opportunistic worker churn, plus a fast serial replay;
//! * [`workloads`] — the seven evaluation workflows (five synthetic
//!   distributions, ColmenaXTB- and TopEFT-shaped production traces);
//! * [`metrics`] — resource-waste and Absolute-Workflow-Efficiency
//!   accounting.
//!
//! ## Quick start
//!
//! ```
//! use tora::prelude::*;
//!
//! // A 200-task workflow whose memory follows a bimodal distribution.
//! let workflow = PaperWorkflow::Bimodal.spec(7).tasks(200).materialize().unwrap();
//!
//! // Execute it on an opportunistic pool, allocating with Exhaustive
//! // Bucketing.
//! let result = simulate(
//!     &workflow,
//!     AlgorithmKind::ExhaustiveBucketing,
//!     SimConfig::default(),
//! );
//!
//! let awe = result.metrics.awe(ResourceKind::MemoryMb).unwrap();
//! assert!(awe > 0.3, "memory efficiency {awe}");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod serve;

pub use tora_alloc as alloc;
pub use tora_metrics as metrics;
pub use tora_sim as sim;
pub use tora_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use tora_alloc::allocator::{
        AlgorithmKind, AllocationDecision, Allocator, AllocatorBuilder, AllocatorConfig,
        ExploratoryPolicy,
    };
    pub use tora_alloc::feedback::{AttemptFeedback, FaultPolicy};
    pub use tora_alloc::resources::{ResourceKind, ResourceMask, ResourceVector, WorkerSpec};
    pub use tora_alloc::task::{
        CategoryId, ResourceRecord, TaskContext, TaskFeatures, TaskId, TaskSpec,
    };
    pub use tora_alloc::trace::{
        AllocEvent, AxisProvenance, EventSink, JsonlSink, MemorySink, NoopSink, PredictKind,
        TraceStats,
    };
    pub use tora_metrics::{
        AttemptCause, AttemptOutcome, CriticalPathStats, DeadLetter, DeadLetterCause, TaskOutcome,
        WasteAttribution, WasteBreakdown, WorkflowMetrics,
    };
    pub use tora_sim::{
        replay, simulate, ArrivalModel, ChurnConfig, Driver, EnforcementModel, EventLog,
        FaultCounts, FaultPlan, FaultReport, IllegalTransition, QueuePolicy, SimConfig, SimEvent,
        SimResult, SimStats, Simulation, SubmitApi, TaskPhase, UtilizationSeries, WorkerMix,
    };
    pub use tora_workloads::{
        DagShape, PaperWorkflow, SyntheticKind, TaskSource, Workflow, WorkloadSpec,
    };
}
