//! The opportunistic worker pool.
//!
//! Workers join and leave over a run — the defining property of
//! opportunistic deployment (HTCondor backfill slots, spot instances). The
//! pool tracks per-worker available capacity, places allocations first-fit,
//! and supports preemption: a departing worker kills its running tasks,
//! which the engine resubmits.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tora_alloc::resources::{ResourceKind, ResourceVector, WorkerSpec};

pub use tora_alloc::trace::WorkerId;

/// Zero out temporal axes: what a task actually occupies on a worker.
pub(crate) fn spatial(alloc: &ResourceVector) -> ResourceVector {
    let mut out = *alloc;
    for kind in ResourceKind::ALL {
        if !kind.is_spatial() {
            out[kind] = 0.0;
        }
    }
    out
}

/// One live worker.
#[derive(Debug, Clone)]
pub struct Worker {
    /// Shape of the worker.
    pub spec: WorkerSpec,
    /// Currently unreserved capacity.
    pub available: ResourceVector,
    /// Number of allocations currently placed here.
    pub running: usize,
}

impl Worker {
    fn new(spec: WorkerSpec) -> Self {
        Worker {
            spec,
            available: spec.capacity,
            running: 0,
        }
    }

    /// Whether `alloc` fits in the remaining capacity. Only spatial axes
    /// occupy a worker; a time allocation is an enforcement limit, not a
    /// reservation.
    pub fn fits(&self, alloc: &ResourceVector) -> bool {
        self.available.dominates(&spatial(alloc))
    }

    fn reserve(&mut self, alloc: &ResourceVector) {
        debug_assert!(self.fits(alloc));
        self.available = self.available.sub(&spatial(alloc));
        self.running += 1;
    }

    fn release(&mut self, alloc: &ResourceVector) {
        self.available = self.available.add(&spatial(alloc));
        self.running -= 1;
        // Guard against reservation-accounting bugs, with a small tolerance
        // for the float round-trip of subtract-then-add.
        debug_assert!(
            self.spec
                .capacity
                .scale(1.0 + 1e-9)
                .add(&ResourceVector::new(1e-6, 1e-6, 1e-6))
                .dominates(&self.available),
            "released past capacity: {} vs {}",
            self.available,
            self.spec.capacity
        );
        // Snap so float drift never accumulates: an idle worker is exactly
        // full again (drift below capacity would otherwise stop
        // whole-machine allocations from ever fitting).
        if self.running == 0 {
            self.available = self.spec.capacity;
        } else {
            self.available = self.available.min(&self.spec.capacity);
        }
    }
}

/// The worker pool.
///
/// Workers live in a `BTreeMap` so first-fit placement and random victim
/// selection iterate ids in order directly, instead of collecting and
/// sorting every id on every call (formerly O(n log n) per placement).
#[derive(Debug, Default)]
pub struct WorkerPool {
    workers: BTreeMap<WorkerId, Worker>,
    next_id: u64,
}

impl WorkerPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a worker; returns its id.
    pub fn join(&mut self, spec: WorkerSpec) -> WorkerId {
        let id = WorkerId(self.next_id);
        self.next_id += 1;
        self.workers.insert(id, Worker::new(spec));
        id
    }

    /// Remove a worker. Returns `None` if it was already gone. The engine is
    /// responsible for preempting whatever ran there.
    pub fn leave(&mut self, id: WorkerId) -> Option<Worker> {
        self.workers.remove(&id)
    }

    /// Number of live workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether no workers are alive.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Look up a worker.
    pub fn get(&self, id: WorkerId) -> Option<&Worker> {
        self.workers.get(&id)
    }

    /// Iterate live workers in ascending id order (the same order every
    /// other pool operation uses, so callers stay deterministic).
    pub fn workers(&self) -> impl Iterator<Item = (WorkerId, &Worker)> {
        self.workers.iter().map(|(&id, w)| (id, w))
    }

    /// First-fit placement that deprioritizes the `avoid` racks: reserve
    /// `alloc` on the lowest-id fitting worker *outside* them; only when no
    /// other worker has room does an avoided rack take the task (capacity
    /// is never forfeited to suspicion). With an empty avoid list this is
    /// plain first fit. Deterministic given the pool state.
    pub fn place(&mut self, alloc: &ResourceVector, avoid: &[u32]) -> Option<WorkerId> {
        let mut fallback = None;
        for (&id, w) in self.workers.iter_mut() {
            if !w.fits(alloc) {
                continue;
            }
            if !avoid.contains(&w.spec.rack) {
                w.reserve(alloc);
                return Some(id);
            }
            fallback.get_or_insert(id);
        }
        let id = fallback?;
        self.workers
            .get_mut(&id)
            .expect("fallback worker exists")
            .reserve(alloc);
        Some(id)
    }

    /// Release a previously placed allocation.
    ///
    /// # Panics
    /// If the worker does not exist (releases must precede departure).
    pub fn release(&mut self, id: WorkerId, alloc: &ResourceVector) {
        self.workers
            .get_mut(&id)
            .expect("release on departed worker")
            .release(alloc);
    }

    /// Pick a uniformly random live worker (for departure events).
    pub fn random_worker(&self, rng: &mut StdRng) -> Option<WorkerId> {
        if self.workers.is_empty() {
            return None;
        }
        let index = rng.gen_range(0..self.workers.len());
        self.workers.keys().nth(index).copied()
    }

    /// Whether `alloc` would fit on some worker right now (no reservation).
    pub fn can_place(&self, alloc: &ResourceVector) -> bool {
        self.workers.values().any(|w| w.fits(alloc))
    }

    /// Whether `alloc` could fit on some live worker *even if idle* — i.e.
    /// against total capacity rather than current availability. False for
    /// an empty pool. A queued allocation failing this check can never be
    /// dispatched until the pool changes shape.
    pub fn could_ever_place(&self, alloc: &ResourceVector) -> bool {
        let demand = spatial(alloc);
        self.workers
            .values()
            .any(|w| w.spec.capacity.dominates(&demand))
    }
}

/// Worker churn configuration: how the opportunistic pool evolves.
///
/// §V-A: "The number of workers varies from 20 to 50 depending on the
/// availability of the local HTCondor cluster." [`ChurnConfig::paper_like`]
/// reproduces that band, including the ramp-up of an opportunistic
/// deployment: pilot jobs are granted by the batch system *over time*, so a
/// run starts with a handful of workers and grows into the band (`initial`
/// may sit below `min`; churn joins until the floor is reached).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Workers at time zero (may be below `min`: the ramp-up phase).
    pub initial: usize,
    /// Pool size floor once ramped up (churn joins while below; ≥ 1).
    pub min: usize,
    /// Pool size ceiling.
    pub max: usize,
    /// Mean seconds between churn events (exponential); `None` disables
    /// churn entirely.
    pub mean_interval_s: Option<f64>,
}

impl ChurnConfig {
    /// A fixed pool of `n` workers, no churn.
    pub fn fixed(n: usize) -> Self {
        assert!(n >= 1);
        ChurnConfig {
            initial: n,
            min: n,
            max: n,
            mean_interval_s: None,
        }
    }

    /// The paper's opportunistic band: ramp up from 8 pilot workers into
    /// 20–50, with a churn event every ~15 s on average.
    pub fn paper_like() -> Self {
        ChurnConfig {
            initial: 8,
            min: 20,
            max: 50,
            mean_interval_s: Some(15.0),
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.min < 1 {
            return Err("min workers must be ≥ 1".into());
        }
        if self.initial < 1 {
            return Err("initial workers must be ≥ 1".into());
        }
        if self.min > self.max {
            return Err(format!("min {} > max {}", self.min, self.max));
        }
        if self.initial > self.max {
            return Err(format!("initial {} > max {}", self.initial, self.max));
        }
        if self.initial < self.min && self.mean_interval_s.is_none() {
            return Err(format!(
                "initial {} below min {} with churn disabled: the pool could never ramp up",
                self.initial, self.min
            ));
        }
        if let Some(m) = self.mean_interval_s {
            if !(m.is_finite() && m > 0.0) {
                return Err(format!("bad mean interval {m}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spec() -> WorkerSpec {
        WorkerSpec::paper_default()
    }

    #[test]
    fn join_place_release_leave_cycle() {
        let mut pool = WorkerPool::new();
        let a = pool.join(spec());
        let b = pool.join(spec());
        assert_eq!(pool.len(), 2);
        let alloc = ResourceVector::new(8.0, 1024.0, 1024.0);
        // First fit is the lowest id.
        let placed = pool.place(&alloc, &[]).unwrap();
        assert_eq!(placed, a);
        assert_eq!(pool.get(a).unwrap().running, 1);
        // Second placement of 8 cores still fits worker a (16 cores).
        assert_eq!(pool.place(&alloc, &[]).unwrap(), a);
        // Third goes to b.
        assert_eq!(pool.place(&alloc, &[]).unwrap(), b);
        pool.release(a, &alloc);
        pool.release(a, &alloc);
        assert_eq!(pool.get(a).unwrap().running, 0);
        assert_eq!(pool.get(a).unwrap().available, spec().capacity);
        assert!(pool.leave(b).is_some());
        assert!(pool.leave(b).is_none());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn workers_iterates_in_id_order() {
        let mut pool = WorkerPool::new();
        for rack in 0..4u32 {
            pool.join(spec().with_rack(rack));
        }
        pool.leave(WorkerId(1));
        let seen: Vec<(WorkerId, u32)> = pool.workers().map(|(id, w)| (id, w.spec.rack)).collect();
        assert_eq!(
            seen,
            vec![(WorkerId(0), 0), (WorkerId(2), 2), (WorkerId(3), 3)]
        );
    }

    #[test]
    fn place_prefers_healthy_racks_but_never_strands_work() {
        let mut pool = WorkerPool::new();
        let a = pool.join(spec().with_rack(0));
        let b = pool.join(spec().with_rack(1));
        let alloc = ResourceVector::new(8.0, 1024.0, 1024.0);
        // An empty avoid list is plain first fit: lowest id.
        assert_eq!(pool.place(&alloc, &[]), Some(a));
        pool.release(a, &alloc);
        // Rack 0 flagged: the higher-id worker on rack 1 wins.
        assert_eq!(pool.place(&alloc, &[0]), Some(b));
        // Both racks flagged: first fit again rather than refusing.
        assert_eq!(pool.place(&alloc, &[0, 1]), Some(a));
        // Fill rack 1 completely; an avoided rack still takes the task.
        let whole = spec().capacity;
        pool.release(a, &alloc);
        pool.release(b, &alloc);
        assert_eq!(pool.place(&whole, &[0]), Some(b));
        assert_eq!(pool.place(&whole, &[0]), Some(a));
        assert_eq!(pool.place(&whole, &[0]), None);
    }

    #[test]
    fn place_fails_when_everything_full() {
        let mut pool = WorkerPool::new();
        pool.join(spec());
        let whole = spec().capacity;
        assert!(pool.place(&whole, &[]).is_some());
        assert_eq!(pool.place(&ResourceVector::new(1.0, 1.0, 1.0), &[]), None);
    }

    #[test]
    fn random_worker_covers_pool() {
        let mut pool = WorkerPool::new();
        let ids: Vec<WorkerId> = (0..5).map(|_| pool.join(spec())).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(pool.random_worker(&mut rng).unwrap());
        }
        for id in ids {
            assert!(seen.contains(&id));
        }
        assert_eq!(WorkerPool::new().random_worker(&mut rng), None);
    }

    #[test]
    fn total_available_tracks_reservations() {
        let mut pool = WorkerPool::new();
        pool.join(spec());
        pool.join(spec());
        let total_available = |pool: &WorkerPool| {
            pool.workers
                .values()
                .fold(ResourceVector::ZERO, |acc, w| acc.add(&w.available))
        };
        let before = total_available(&pool);
        let alloc = ResourceVector::new(4.0, 2048.0, 512.0);
        pool.place(&alloc, &[]).unwrap();
        let after = total_available(&pool);
        assert_eq!(before.sub(&after), alloc);
    }

    #[test]
    fn placement_order_is_lowest_id_first_fit_under_churn() {
        // Pins the placement contract: first fit by ascending worker id,
        // including after departures and re-joins (ids are never reused).
        let mut pool = WorkerPool::new();
        let a = pool.join(spec());
        let b = pool.join(spec());
        let c = pool.join(spec());
        let whole = spec().capacity;
        assert_eq!(pool.place(&whole, &[]), Some(a));
        // a is full → next lowest id wins.
        assert_eq!(pool.place(&whole, &[]), Some(b));
        // b departs mid-run; c is now the only worker with room.
        pool.leave(b);
        assert_eq!(pool.place(&whole, &[]), Some(c));
        // A re-join gets a fresh id above every previous one.
        let d = pool.join(spec());
        assert!(d > c);
        assert_eq!(pool.place(&whole, &[]), Some(d));
        pool.release(a, &whole);
        // Freed capacity on the lowest id is preferred again.
        assert_eq!(pool.place(&whole, &[]), Some(a));
    }

    #[test]
    fn random_worker_is_deterministic_given_seed() {
        let build = || {
            let mut pool = WorkerPool::new();
            for _ in 0..7 {
                pool.join(spec());
            }
            pool.leave(WorkerId(2));
            pool.leave(WorkerId(5));
            pool
        };
        let draw = |pool: &WorkerPool| {
            let mut rng = StdRng::seed_from_u64(17);
            (0..50)
                .map(|_| pool.random_worker(&mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        let picks = draw(&build());
        assert_eq!(picks, draw(&build()));
        // Departed workers are never picked.
        assert!(!picks.contains(&WorkerId(2)));
        assert!(!picks.contains(&WorkerId(5)));
    }

    #[test]
    fn could_ever_place_checks_total_capacity_not_availability() {
        let mut pool = WorkerPool::new();
        assert!(!pool.could_ever_place(&ResourceVector::new(1.0, 1.0, 1.0)));
        pool.join(spec());
        let whole = spec().capacity;
        pool.place(&whole, &[]).unwrap();
        // Nothing fits *now*, but an idle worker of this shape could take it.
        assert!(!pool.can_place(&whole));
        assert!(pool.could_ever_place(&whole));
        // A demand exceeding every worker's total shape can never place.
        let oversized = whole.scale(2.0);
        assert!(!pool.could_ever_place(&oversized));
        // Temporal axes are enforcement limits, not reservations: a huge
        // time request does not make an allocation unplaceable.
        let long = whole.with(ResourceKind::TimeS, 1e12);
        assert!(pool.could_ever_place(&long));
    }

    #[test]
    fn churn_config_validation() {
        assert!(ChurnConfig::fixed(10).validate().is_ok());
        assert!(ChurnConfig::paper_like().validate().is_ok());
        // Ramp-up (initial below min) is fine when churn can grow the pool…
        let ramp = ChurnConfig {
            initial: 5,
            min: 10,
            max: 20,
            mean_interval_s: Some(15.0),
        };
        assert!(ramp.validate().is_ok());
        // …but not when churn is disabled.
        let stuck = ChurnConfig {
            mean_interval_s: None,
            ..ramp
        };
        assert!(stuck.validate().is_err());
        let above_max = ChurnConfig {
            initial: 25,
            min: 10,
            max: 20,
            mean_interval_s: None,
        };
        assert!(above_max.validate().is_err());
        let zero_min = ChurnConfig {
            initial: 1,
            min: 0,
            max: 2,
            mean_interval_s: None,
        };
        assert!(zero_min.validate().is_err());
        let bad_interval = ChurnConfig {
            mean_interval_s: Some(0.0),
            ..ChurnConfig::fixed(3)
        };
        assert!(bad_interval.validate().is_err());
    }
}
