//! Multi-tenant allocator state and cross-tenant fair admission.
//!
//! Each open workflow is a [`Tenant`]: a private [`Allocator`] (its own
//! estimator bank, RNG streams and feedback window — tenants never share
//! allocator state), the replayable [`AllocLog`] journal of every operation
//! applied to it, and the tenant's running/queued task books. The
//! [`Registry`] owns the tenants plus the shared pool capacity and decides
//! *admission* — which queued tasks may book capacity — by dominant-resource
//! fairness.
//!
//! ## Dominant-resource fairness (DRF)
//!
//! A tenant's *dominant share* is the largest fraction of any managed pool
//! axis its granted tasks currently book: `max_k booked_k / capacity_k` over
//! cores, memory and disk. Admission repeatedly picks the tenant with the
//! smallest dominant share among those with a non-empty queue and admits the
//! head of its FIFO queue; it stops as soon as that head does not fit the
//! remaining capacity. Not skipping past a blocked head is deliberate:
//! progressive filling without bypass cannot starve a large task behind
//! which capacity will eventually drain. Ties on share break by tenant name,
//! so admission order — like everything else in the daemon — is a pure
//! function of the request history.
//!
//! The pool is an *aggregate* capacity model (`workers ×` the paper's §V-A
//! worker shape): the daemon is an allocation service, not a placement
//! engine, so per-worker fragmentation is out of scope here and handled by
//! the batch system consuming the grants.

use crate::cli::parse_algorithm;
use crate::prelude::*;
use tora_alloc::oplog::{AllocLog, AllocOp, Applied};

use std::collections::{BTreeSet, VecDeque};

use super::protocol::Grant;

/// A task the daemon is tracking: its id, category, feature vector, and the
/// allocation it is running under (or will run under once admitted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct TaskBooking {
    /// Task id, unique within the tenant.
    pub task: u64,
    /// The task's category.
    pub category: u32,
    /// Pre-run features the task was submitted with (zero when the client
    /// sent none); retries and completion records re-present the same ones.
    pub features: TaskFeatures,
    /// The predicted allocation.
    pub alloc: ResourceVector,
}

impl TaskBooking {
    /// The task's full prediction context.
    pub fn context(&self) -> TaskContext {
        TaskContext::new(CategoryId(self.category), self.features)
    }
}

/// One open workflow: a private allocator plus its books.
pub(super) struct Tenant {
    /// Tenant name (unique while open).
    pub name: String,
    /// The algorithm the allocator was built with.
    pub algorithm: AlgorithmKind,
    /// The allocator's seed.
    pub seed: u64,
    /// The tenant's own allocator — never shared.
    pub allocator: Allocator,
    /// Journal of every state-moving allocator call, for snapshots.
    pub log: AllocLog,
    /// Admitted tasks, in admission order. Their allocations are booked
    /// against pool capacity.
    pub running: Vec<TaskBooking>,
    /// Tasks waiting for admission, FIFO. Retries re-enter at the front.
    pub queue: VecDeque<TaskBooking>,
    /// Every task id ever submitted, for duplicate detection. Ordered so
    /// snapshots serialize deterministically.
    pub submitted: BTreeSet<u64>,
    /// Completions observed.
    pub completed: u64,
    /// Faults observed.
    pub faults: u64,
}

impl Tenant {
    /// A fresh tenant with an empty journal and books.
    pub fn new(name: String, algorithm: AlgorithmKind, seed: u64) -> Self {
        Tenant {
            name,
            algorithm,
            seed,
            allocator: Allocator::builder(algorithm).seed(seed).build(),
            log: AllocLog::new(),
            running: Vec::new(),
            queue: VecDeque::new(),
            submitted: BTreeSet::new(),
            completed: 0,
            faults: 0,
        }
    }

    /// Sum of the allocations booked by running tasks.
    ///
    /// Recomputed from the books on every call rather than maintained
    /// incrementally: floating-point sums are order-sensitive, and a
    /// restored daemon must reproduce the live daemon's numbers exactly —
    /// summing the (order-preserved) running list is reproducible where an
    /// add/sub running total would drift.
    pub fn booked(&self) -> ResourceVector {
        self.running
            .iter()
            .fold(ResourceVector::ZERO, |acc, b| acc.add(&b.alloc))
    }

    /// The tenant's dominant share of `capacity`: the largest booked
    /// fraction across the managed axes.
    pub fn dominant_share(&self, capacity: &ResourceVector) -> f64 {
        let booked = self.booked();
        ResourceKind::STANDARD
            .into_iter()
            .map(|k| booked[k] / capacity[k])
            .fold(0.0, f64::max)
    }

    /// Journal `op` and apply it to the allocator, returning whatever the
    /// allocator returned. Keeping journaling and application in one place
    /// guarantees the journal is exactly the applied sequence.
    pub fn apply(&mut self, op: AllocOp) -> Applied {
        let result = op.apply(&mut self.allocator);
        self.log.push(op);
        result
    }
}

/// The daemon's tenants plus the shared pool.
pub(super) struct Registry {
    /// Open tenants, in creation order.
    pub tenants: Vec<Tenant>,
    /// Pool worker count.
    pub workers: usize,
    /// Aggregate pool capacity (`workers ×` worker shape).
    pub capacity: ResourceVector,
}

impl Registry {
    /// An empty registry over a pool of `workers` paper-shaped workers.
    pub fn new(workers: usize) -> Self {
        Registry {
            tenants: Vec::new(),
            workers,
            capacity: WorkerSpec::paper_default().capacity.scale(workers as f64),
        }
    }

    /// Index of the named tenant.
    pub fn find(&self, tenant: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == tenant)
    }

    /// Capacity currently booked across all tenants.
    pub fn used(&self) -> ResourceVector {
        self.tenants
            .iter()
            .fold(ResourceVector::ZERO, |acc, t| acc.add(&t.booked()))
    }

    /// Whether `alloc` fits in the remaining pool capacity on the managed
    /// (spatial) axes. The time axis is never packed.
    fn fits(&self, alloc: &ResourceVector) -> bool {
        let used = self.used();
        ResourceKind::STANDARD
            .into_iter()
            .all(|k| used[k] + alloc[k] <= self.capacity[k])
    }

    /// Run DRF admission to a fixpoint, returning the grants in admission
    /// order.
    pub fn admit(&mut self) -> Vec<Grant> {
        let mut granted = Vec::new();
        // Each round admits the queue head of the min-(share, name) tenant
        // with work waiting, until no such tenant exists or its head no
        // longer fits.
        while let Some(next) = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.queue.is_empty())
            .min_by(|(_, a), (_, b)| {
                a.dominant_share(&self.capacity)
                    .total_cmp(&b.dominant_share(&self.capacity))
                    .then_with(|| a.name.cmp(&b.name))
            })
            .map(|(i, _)| i)
        {
            let head = *self.tenants[next].queue.front().expect("non-empty queue");
            if !self.fits(&head.alloc) {
                break;
            }
            let tenant = &mut self.tenants[next];
            tenant.queue.pop_front();
            tenant.running.push(head);
            granted.push(Grant {
                tenant: tenant.name.clone(),
                task: head.task,
                alloc: head.alloc.into(),
            });
        }
        granted
    }
}

/// Resolve an `Open` request's algorithm label; empty picks the paper's
/// best performer.
pub(super) fn algorithm_or_default(label: &str) -> Result<AlgorithmKind, String> {
    if label.is_empty() {
        Ok(AlgorithmKind::ExhaustiveBucketing)
    } else {
        parse_algorithm(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booking(task: u64, cores: f64) -> TaskBooking {
        TaskBooking {
            task,
            category: 0,
            features: TaskFeatures::default(),
            alloc: ResourceVector::new(cores, 1024.0, 512.0),
        }
    }

    #[test]
    fn admission_favors_the_smallest_dominant_share() {
        let mut reg = Registry::new(1); // 16 cores, 64 GB, 64 GB
        for name in ["a", "b"] {
            reg.tenants.push(Tenant::new(
                name.into(),
                AlgorithmKind::ExhaustiveBucketing,
                7,
            ));
        }
        // Tenant a already books 8 cores (share 0.5); b books nothing.
        reg.tenants[0].running.push(booking(0, 8.0));
        reg.tenants[0].queue.push_back(booking(1, 2.0));
        reg.tenants[1].queue.push_back(booking(0, 2.0));
        let grants = reg.admit();
        // b admits first (share 0 vs a's 0.5), then a's head fits too.
        let order: Vec<(String, u64)> = grants.iter().map(|g| (g.tenant.clone(), g.task)).collect();
        assert_eq!(order, vec![("b".to_string(), 0), ("a".to_string(), 1)]);

        // A head too big for the remaining capacity blocks admission for
        // everyone behind it — progressive filling never bypasses, so a
        // large task cannot be starved by a stream of small ones.
        reg.tenants[1].queue.push_back(booking(1, 20.0)); // 16-core pool
        reg.tenants[0].queue.push_back(booking(2, 1.0));
        assert!(reg.admit().is_empty(), "min-share head blocks, no bypass");
        assert_eq!(reg.tenants[0].queue.len(), 1, "a's small task stays queued");
        assert_eq!(reg.tenants[1].queue.len(), 1, "blocked head stays queued");
    }

    #[test]
    fn admission_stops_at_capacity_and_ties_break_by_name() {
        let mut reg = Registry::new(1);
        for name in ["b", "a"] {
            reg.tenants.push(Tenant::new(
                name.into(),
                AlgorithmKind::ExhaustiveBucketing,
                7,
            ));
        }
        // Equal shares (both empty): "a" wins the tie despite later creation.
        reg.tenants[0].queue.push_back(booking(0, 10.0));
        reg.tenants[1].queue.push_back(booking(0, 10.0));
        let grants = reg.admit();
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].tenant, "a");
        assert_eq!(reg.used().cores(), 10.0);
    }

    #[test]
    fn booked_sums_are_order_stable() {
        let mut t = Tenant::new("t".into(), AlgorithmKind::GreedyBucketing, 7);
        t.running.push(booking(0, 0.1));
        t.running.push(booking(1, 0.2));
        t.running.push(booking(2, 0.3));
        let a = t.booked();
        let b = t.booked();
        assert_eq!(a, b);
        assert!(t.dominant_share(&ResourceVector::new(16.0, 65536.0, 65536.0)) > 0.0);
    }
}
