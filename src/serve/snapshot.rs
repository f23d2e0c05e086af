//! Daemon snapshot/restore: a killed `tora serve` resumes byte-identically.
//!
//! Allocator internals (trait-object estimators, mid-stream RNGs) cannot be
//! serialized, so a snapshot stores each tenant's *input journal*
//! ([`AllocLog`]) instead — the allocator is deterministic in `(algorithm,
//! seed, input sequence)`, so replaying the journal through a freshly built
//! allocator reproduces the original exactly (see `tora_alloc::oplog`).
//! Everything else about a tenant — its books, counters and identity — is
//! plain data and is stored directly.
//!
//! Determinism contract: `snapshot → restore → snapshot` produces the same
//! bytes, and a restored daemon answers any request stream exactly as the
//! uninterrupted daemon would. Every collection serializes in a defined
//! order (vectors preserve order; the submitted-id set is ordered), and
//! per-tenant capacity sums are recomputed from the order-preserved running
//! list rather than carried as accumulated floats.

use serde::{Deserialize, Serialize};
use tora_alloc::oplog::AllocLog;

use super::tenant::{algorithm_or_default, Registry, TaskBooking, Tenant};

/// Current snapshot format version.
const SNAPSHOT_VERSION: u32 = 1;

/// One tenant in snapshot form: builder inputs + journal + books.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TenantSnapshot {
    name: String,
    algorithm: String,
    seed: u64,
    log: AllocLog,
    running: Vec<TaskBooking>,
    queued: Vec<TaskBooking>,
    submitted: Vec<u64>,
    completed: u64,
    faults: u64,
}

/// The daemon's full persistent state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    version: u32,
    workers: usize,
    tenants: Vec<TenantSnapshot>,
}

impl ServeSnapshot {
    /// Capture `registry` into snapshot form.
    pub(super) fn capture(registry: &Registry) -> Self {
        ServeSnapshot {
            version: SNAPSHOT_VERSION,
            workers: registry.workers,
            tenants: registry
                .tenants
                .iter()
                .map(|t| TenantSnapshot {
                    name: t.name.clone(),
                    algorithm: t.algorithm.label().to_string(),
                    seed: t.seed,
                    log: t.log.clone(),
                    running: t.running.clone(),
                    queued: t.queue.iter().copied().collect(),
                    submitted: t.submitted.iter().copied().collect(),
                    completed: t.completed,
                    faults: t.faults,
                })
                .collect(),
        }
    }

    /// Rebuild a live registry: every tenant's allocator is built fresh and
    /// its journal replayed through it. The pool size comes from the
    /// snapshot (the pool the books were admitted against).
    pub(super) fn restore(&self) -> Result<Registry, String> {
        if self.version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot version {} unsupported (expected {SNAPSHOT_VERSION})",
                self.version
            ));
        }
        let mut registry = Registry::new(self.workers);
        for snap in &self.tenants {
            let algorithm = algorithm_or_default(&snap.algorithm)?;
            let mut tenant = Tenant::new(snap.name.clone(), algorithm, snap.seed);
            snap.log.replay(&mut tenant.allocator);
            tenant.log = snap.log.clone();
            tenant.running = snap.running.clone();
            tenant.queue = snap.queued.iter().copied().collect();
            tenant.submitted = snap.submitted.iter().copied().collect();
            tenant.completed = snap.completed;
            tenant.faults = snap.faults;
            registry.tenants.push(tenant);
        }
        Ok(registry)
    }

    /// Serialize to the on-disk JSON form.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("snapshot serialization failed: {e}"))
    }

    /// Parse the on-disk JSON form.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("snapshot parse failed: {e}"))
    }
}
