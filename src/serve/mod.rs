//! `tora serve` — a long-running allocation daemon.
//!
//! The simulator answers "what would this allocator have done"; `serve`
//! answers "what should my workflow do *now*". A workflow manager (or
//! several — tenants are multiplexed) connects over stdin/stdout or a Unix
//! socket, registers as a tenant, and drives the paper's allocation loop
//! interactively: submit tasks, receive predicted allocations and admission
//! grants, report completions and faults, and ask for advisory predictions
//! — all over line-delimited JSON with exactly one response line per
//! request line (see [`protocol`]).
//!
//! ## Architecture (DESIGN.md §5i)
//!
//! * [`protocol`] — the wire types. Externally-tagged request/response
//!   enums; resource vectors cross the wire as named axes.
//! * [`tenant`] (private) — per-tenant allocator state (each tenant owns an
//!   [`Allocator`](crate::prelude::Allocator), journal and task books) and
//!   the dominant-resource-fair admission policy that arbitrates the shared
//!   pool between tenants.
//! * [`session`] — the transport-agnostic request loop.
//! * [`snapshot`] — kill-safe persistence: a snapshot stores each tenant's
//!   replayable input journal (`tora_alloc::oplog`) instead of opaque
//!   allocator internals, and a restored daemon resumes byte-identically.
//!
//! ## Error codes
//!
//! [`protocol::Response::Error`] carries a stable machine-readable `code`:
//!
//! | code | meaning |
//! |------|---------|
//! | `bad-request` | unparseable or non-UTF-8 line, or a field failed validation (including `Workload.tasks` over [`session::MAX_WORKLOAD_TASKS`]) |
//! | `line-too-long` | a request line over [`session::MAX_LINE_BYTES`]; the rest of the line is skipped |
//! | `unknown-tenant` | no open tenant by that name |
//! | `duplicate-tenant` | `Open` for a name already open |
//! | `unknown-task` / `task-not-running` | the task is not currently granted |
//! | `duplicate-task` | a task id was submitted twice to one tenant |
//! | `unknown-algorithm` | `Open.algorithm` is not a known label |
//! | `unknown-workflow` | `Workload.workflow` is not a built-in |
//! | `bad-fault-kind` | `Fault.kind` is not crash/straggler/exhaustion |
//! | `io` | a snapshot could not be serialized or written (snapshots are written to a temp file, synced, then renamed into place) |
//!
//! Workload materialization failures pass through the stable
//! [`WorkloadError`](crate::workloads::WorkloadError) codes
//! (`category-arity`, `invalid-trace`, …) unchanged.

pub mod protocol;
pub mod session;
pub mod snapshot;
mod tenant;

pub use protocol::{Grant, Prediction, Request, Response, WireVector};
pub use session::Session;
pub use snapshot::ServeSnapshot;

/// Daemon configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Pool size in §V-A-shaped workers (16 cores / 64 GB / 64 GB each);
    /// admission books against the aggregate capacity.
    pub workers: usize,
    /// Ignored: the daemon is serial (DESIGN.md §5h). Kept for one
    /// release so existing struct literals still compile.
    #[deprecated(note = "ignored; the daemon is serial, so drop the field")]
    pub threads: usize,
}

impl Default for ServeConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        ServeConfig {
            workers: 20,
            threads: 0,
        }
    }
}
