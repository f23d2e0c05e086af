//! The `tora serve` wire protocol: line-delimited JSON requests and
//! responses.
//!
//! One request object per line in, exactly one response object per line out,
//! in request order — the protocol is strictly synchronous, so a transcript
//! is a deterministic function of the request stream and the daemon's
//! initial state. Both sides use serde's externally-tagged enum encoding:
//! `{"Submit":{"tenant":"wf-a","task":0,"category":1}}`.
//!
//! Admission decisions triggered by a request (a completion freeing
//! capacity, a submission fitting immediately) ride inline in that request's
//! response as [`Grant`]s — there are no unsolicited server lines, which
//! keeps golden-transcript testing and `nc`-style manual driving trivial.
//!
//! Resource vectors cross the wire as flat named fields ([`WireVector`])
//! rather than the internal array encoding, so clients never depend on the
//! engine's axis ordering.

use crate::prelude::*;
use serde::{Deserialize, Serialize};

/// A resource vector in wire form: explicit named axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireVector {
    /// CPU cores.
    pub cores: f64,
    /// Memory in MB.
    pub memory_mb: f64,
    /// Disk in MB.
    pub disk_mb: f64,
    /// Wall time in seconds (the allocation 4-tuple's `t_a`).
    pub time_s: f64,
}

impl From<ResourceVector> for WireVector {
    fn from(v: ResourceVector) -> Self {
        WireVector {
            cores: v.cores(),
            memory_mb: v.memory_mb(),
            disk_mb: v.disk_mb(),
            time_s: v[ResourceKind::TimeS],
        }
    }
}

impl From<WireVector> for ResourceVector {
    fn from(w: WireVector) -> Self {
        ResourceVector::new(w.cores, w.memory_mb, w.disk_mb).with(ResourceKind::TimeS, w.time_s)
    }
}

/// One admitted task: the daemon has booked `alloc` of pool capacity for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grant {
    /// The tenant the task belongs to.
    pub tenant: String,
    /// The task id (unique within the tenant).
    pub task: u64,
    /// The booked allocation.
    pub alloc: WireVector,
}

/// One first-attempt prediction, as returned by [`Request::Predict`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// The requested category.
    pub category: u32,
    /// Which prediction path answered (`explore`, `first`, `retry`).
    pub kind: String,
    /// The predicted allocation.
    pub alloc: WireVector,
}

/// Per-tenant line of a [`Response::StatsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStatus {
    /// Tenant name.
    pub tenant: String,
    /// Dominant-resource share of pool capacity currently booked.
    pub share: f64,
    /// Tasks currently granted (running).
    pub running: u64,
    /// Tasks waiting for admission.
    pub queued: u64,
    /// Completions observed.
    pub completed: u64,
    /// Faults observed.
    pub faults: u64,
    /// Journaled allocator operations.
    pub ops: u64,
}

/// A client request: one externally-tagged JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Register a tenant with its own freshly built allocator.
    Open {
        /// Tenant name (unique while open).
        tenant: String,
        /// Algorithm label (see `tora algorithms`); empty picks
        /// `exhaustive-bucketing`.
        #[serde(default)]
        algorithm: String,
        /// Allocator RNG seed.
        #[serde(default)]
        seed: u64,
    },
    /// Submit one task: predict its first allocation and queue it for
    /// admission.
    Submit {
        /// Owning tenant.
        tenant: String,
        /// Task id, unique within the tenant.
        task: u64,
        /// Task category (function id).
        category: u32,
        /// Optional pre-run input-size signal in `[0, 1]` for
        /// feature-conditioned algorithms; omitting it (0) is exactly the
        /// pre-feature protocol.
        #[serde(default)]
        input_signal: f64,
        /// Optional DAG depth of the task.
        #[serde(default)]
        depth: u32,
    },
    /// Submit every task of a built-in workflow in one batch.
    Workload {
        /// Owning tenant.
        tenant: String,
        /// Built-in workflow name (see `tora workflows`).
        workflow: String,
        /// Task count for synthetic workflows, at most
        /// [`MAX_WORKLOAD_TASKS`](super::session::MAX_WORKLOAD_TASKS); 0
        /// keeps the default size.
        #[serde(default)]
        tasks: usize,
        /// Workflow generation seed.
        #[serde(default)]
        seed: u64,
    },
    /// Report a running task's successful completion and its measured peak.
    Complete {
        /// Owning tenant.
        tenant: String,
        /// The completed task.
        task: u64,
        /// Measured peak cores.
        cores: f64,
        /// Measured peak memory in MB.
        memory_mb: f64,
        /// Measured peak disk in MB.
        disk_mb: f64,
        /// Measured execution time in seconds.
        duration_s: f64,
    },
    /// Report a running task's failed attempt.
    Fault {
        /// Owning tenant.
        tenant: String,
        /// The failed task.
        task: u64,
        /// Failure kind: `crash`, `straggler` or `exhaustion`.
        kind: String,
        /// For `exhaustion`: the exceeded axis labels (`cores`, `memory`,
        /// `disk`, `gpus`, `time`).
        #[serde(default)]
        exhausted: Vec<String>,
    },
    /// Advisory first-attempt predictions for a batch of categories.
    /// Consumes RNG draws exactly like a submission would.
    Predict {
        /// Owning tenant.
        tenant: String,
        /// Categories to predict for, in order.
        categories: Vec<u32>,
    },
    /// Force a full rebucket sweep of the tenant's estimators.
    Rebucket {
        /// Owning tenant.
        tenant: String,
    },
    /// Pool and per-tenant status.
    Stats {},
    /// Persist the daemon's full state to a JSON snapshot file.
    Snapshot {
        /// Destination path.
        path: String,
    },
    /// Deregister a tenant, releasing its grants and queue.
    Close {
        /// The tenant to close.
        tenant: String,
    },
    /// Stop the daemon after responding.
    Shutdown {},
}

/// A daemon response: exactly one per request, in request order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// [`Request::Open`] succeeded.
    Opened {
        /// The registered tenant.
        tenant: String,
    },
    /// [`Request::Submit`] / [`Request::Workload`] succeeded.
    Submitted {
        /// The owning tenant.
        tenant: String,
        /// Tasks accepted by this request.
        accepted: u64,
        /// Tasks admitted immediately (any tenant — admission is global).
        granted: Vec<Grant>,
        /// The tenant's queue depth after admission.
        queued: u64,
    },
    /// [`Request::Complete`] succeeded.
    Completed {
        /// The owning tenant.
        tenant: String,
        /// The completed task.
        task: u64,
        /// Tasks admitted into the freed capacity (any tenant).
        admitted: Vec<Grant>,
    },
    /// [`Request::Fault`] succeeded: the attempt was recorded and the task
    /// re-queued (or abandoned, if retrying cannot help).
    Retried {
        /// The owning tenant.
        tenant: String,
        /// The failed task.
        task: u64,
        /// The next attempt's allocation; `None` when the task was
        /// abandoned as infeasible.
        alloc: Option<WireVector>,
        /// Whether the retry is still waiting for admission.
        queued: bool,
        /// True when no exhausted axis could be raised (the task does not
        /// fit the machine); the task is dropped, not retried.
        infeasible: bool,
        /// Tasks admitted after the fault released capacity (any tenant).
        admitted: Vec<Grant>,
    },
    /// [`Request::Predict`] succeeded.
    Predictions {
        /// The owning tenant.
        tenant: String,
        /// One prediction per requested category, in request order.
        predictions: Vec<Prediction>,
    },
    /// [`Request::Rebucket`] succeeded.
    Rebucketed {
        /// The owning tenant.
        tenant: String,
        /// `(category, axis)` estimator pairs that produced a new
        /// bucketing configuration.
        changed: u64,
    },
    /// [`Request::Stats`] report.
    StatsReport {
        /// Pool worker count.
        workers: u64,
        /// Aggregate pool capacity.
        capacity: WireVector,
        /// Currently booked capacity.
        used: WireVector,
        /// Per-tenant status, in tenant creation order.
        tenants: Vec<TenantStatus>,
    },
    /// [`Request::Snapshot`] succeeded.
    Snapshotted {
        /// Where the snapshot was written.
        path: String,
        /// Number of tenants captured.
        tenants: u64,
    },
    /// [`Request::Close`] succeeded.
    Closed {
        /// The closed tenant.
        tenant: String,
        /// Tasks (running + queued) the close released.
        released: u64,
        /// Tasks admitted into the released capacity (remaining tenants).
        admitted: Vec<Grant>,
    },
    /// The request failed; daemon state is unchanged.
    Error {
        /// Stable machine-readable code (see the module docs in
        /// [`crate::serve`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// [`Request::Shutdown`] acknowledged; the daemon exits after this line.
    Bye {},
}

impl Response {
    /// Build an [`Response::Error`].
    pub fn error(code: &str, message: impl Into<String>) -> Self {
        Response::Error {
            code: code.to_string(),
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            Request::Open {
                tenant: "a".into(),
                algorithm: "greedy-bucketing".into(),
                seed: 7,
            },
            Request::Submit {
                tenant: "a".into(),
                task: 3,
                category: 1,
                input_signal: 0.4,
                depth: 2,
            },
            Request::Fault {
                tenant: "a".into(),
                task: 3,
                kind: "exhaustion".into(),
                exhausted: vec!["memory".into()],
            },
            Request::Stats {},
            Request::Shutdown {},
        ];
        for req in requests {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "{json}");
        }
    }

    #[test]
    fn defaulted_fields_may_be_omitted() {
        let req: Request =
            serde_json::from_str(r#"{"Open":{"tenant":"a"}}"#).expect("defaults fill in");
        assert_eq!(
            req,
            Request::Open {
                tenant: "a".into(),
                algorithm: String::new(),
                seed: 0,
            }
        );
        // Pre-feature submit lines keep parsing: the feature fields default.
        let req: Request =
            serde_json::from_str(r#"{"Submit":{"tenant":"a","task":1,"category":0}}"#)
                .expect("feature fields default");
        assert_eq!(
            req,
            Request::Submit {
                tenant: "a".into(),
                task: 1,
                category: 0,
                input_signal: 0.0,
                depth: 0,
            }
        );
    }

    #[test]
    fn wire_vector_round_trips_the_time_axis() {
        let v = ResourceVector::new(2.0, 1024.0, 512.0).with(ResourceKind::TimeS, 60.0);
        let w = WireVector::from(v);
        assert_eq!(w.time_s, 60.0);
        assert_eq!(ResourceVector::from(w), v);
    }
}
