//! # tora-sim — a dynamic-workflow execution simulator
//!
//! Reproduces the execution substrate of Phung & Thain (IPDPS 2024): the
//! Work-Queue-style manager/scheduler/worker loop of Figure 1, running on
//! *opportunistic* workers that join and leave mid-run, with the §II-B
//! enforcement semantics (tasks killed on over-consumption, retried with
//! bigger allocations).
//!
//! Two execution paths are provided:
//!
//! * [`engine`] — the full discrete-event simulation with a worker pool,
//!   first-fit placement, churn and preemption;
//! * [`mod@replay`] — a serial analytic replay producing the same §II-C
//!   accounting in a fraction of the time (AWE is worker-count independent,
//!   which the integration tests verify against the engine).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod enforcement;
pub mod engine;
pub mod faults;
pub mod log;
pub mod replay;
pub mod sampling;
pub mod scheduler;
pub mod stats;
pub mod time;
pub mod workers;

pub use enforcement::{AttemptVerdict, EnforcementModel};
pub use engine::{
    simulate, ArrivalModel, Driver, IllegalTransition, SimConfig, SimResult, Simulation, SubmitApi,
    TaskPhase, WorkerMix,
};
pub use faults::{FaultPlan, FaultReport};
pub use log::{EventLog, LogEntry, SimEvent};
pub use replay::{replay, replay_on};
pub use scheduler::QueuePolicy;
pub use stats::{AllocCallCounts, FaultCounts, SimStats, UtilizationSample, UtilizationSeries};
pub use time::SimTime;
pub use workers::{ChurnConfig, Worker, WorkerId, WorkerPool};
