//! Pool utilization time-series and engine-side allocation bookkeeping.
//!
//! The administrator-side motivation of the paper (§I) is cluster
//! utilization: opportunistic workers plus tight allocations keep granted
//! resources busy. [`UtilizationSeries`] is an event sink that folds the
//! engine's join, leave, crash, dispatch and attempt-ending events into
//! reserved-versus-granted capacity over time.
//!
//! It also defines [`SimStats`]: the engine's record of a run. Its lifecycle
//! counters are a fold over the engine's [`SimEvent`] stream
//! ([`SimStats::apply`]); its allocator-call tally counts how often the
//! engine called into the allocator. Because the allocator's tracing layer
//! counts the same interactions from the other side ([`TraceStats`]), the
//! two can be reconciled exactly — [`SimStats::reconcile`] is the
//! correctness check behind `tora simulate --events`.

use crate::workers::{spatial, WorkerId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tora_alloc::resources::{ResourceKind, ResourceVector};
use tora_alloc::task::{CategoryId, TaskId};
use tora_alloc::trace::{AllocEvent, EventSink, SimEvent, TraceStats};
use tora_metrics::CriticalPathStats;

/// Allocator-call counters, engine-side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocCallCounts {
    /// `predict_first` calls (exploratory and steady-state alike).
    pub predictions_first: u64,
    /// `predict_retry` calls (exactly one per resource-exhaustion kill).
    pub predictions_retry: u64,
    /// `observe` calls (exactly one per completed task).
    pub observations: u64,
    /// Exhausted *managed* axes summed over all kills — the number of
    /// per-axis escalations the retries asked for.
    pub escalations: u64,
    /// `observe_outcome` calls (one per attempt outcome reported through
    /// the fault-feedback channel; zero without an active fault plan).
    #[serde(default)]
    pub feedback: u64,
}

/// Per-cause tallies of injected faults and their consequences. All zero
/// for a run without a fault plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Worker crash events (abrupt departures).
    pub worker_crashes: u64,
    /// Running attempts lost to crashes.
    pub crashed_attempts: u64,
    /// Attempts killed at the straggler timeout.
    pub straggler_kills: u64,
    /// Attempts that straggled but still completed within the timeout.
    pub stragglers_slow: u64,
    /// Completions whose resource record never reached the allocator.
    pub record_drops: u64,
    /// Transient dispatch failures (attempt re-queued with backoff).
    pub dispatch_failures: u64,
    /// Records the allocator rejected at the observe validation boundary.
    pub rejected_records: u64,
    /// Tasks abandoned to the dead-letter path.
    pub dead_lettered: u64,
    /// Allocation kills that dead-lettered the task instead of predicting a
    /// retry (attempt budget exhausted). Balances the `failures = retry
    /// predictions` identity under a fault plan.
    pub capped_retries: u64,
    /// Correlated crash events (each takes out one whole rack).
    #[serde(default)]
    pub rack_crashes: u64,
    /// Dead-letter re-admissions performed by the replay path.
    #[serde(default)]
    pub replayed: u64,
    /// Replayed tasks that went on to complete.
    #[serde(default)]
    pub replay_successes: u64,
    /// Crashed attempts that banked a checkpoint (zero unless the plan's
    /// `checkpointed_fraction` is on).
    #[serde(default)]
    pub checkpointed_attempts: u64,
}

impl FaultCounts {
    /// Whether any fault was recorded.
    pub fn any(&self) -> bool {
        *self != FaultCounts::default()
    }
}

/// The engine's record of a run: lifecycle counters folded from its event
/// stream ([`SimStats::apply`]) plus the allocator calls counted at the
/// call sites.
///
/// `failures` counts resource-exhaustion kills only; preempted attempts are
/// under `preemptions` (a departing worker is an infrastructure artifact,
/// not an allocation failure), and fault-induced attempt losses (crashes,
/// straggler timeouts) are under [`FaultCounts`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Tasks submitted to the engine (the conservation check's left side).
    #[serde(default)]
    pub submitted: u64,
    /// Task attempts placed on workers.
    pub dispatches: u64,
    /// Attempts that ran to success.
    pub completions: u64,
    /// Attempts killed for exceeding their allocation.
    pub failures: u64,
    /// Attempts lost to departing workers.
    pub preemptions: u64,
    /// Injected-fault tallies, per cause.
    #[serde(default)]
    pub faults: FaultCounts,
    /// Total nominal task-seconds salvaged by checkpoint/restart across
    /// every crashed attempt (zero with checkpointing off).
    #[serde(default)]
    pub salvaged_work_s: f64,
    /// Allocator calls, across all categories.
    pub calls: AllocCallCounts,
    /// Allocator calls per task category, keyed by raw category id.
    pub by_category: Vec<(u32, AllocCallCounts)>,
    /// Critical-path accounting for structured (DAG) workloads; `None`
    /// for flat ones, which serializes as `null`.
    #[serde(default)]
    pub critical_path: Option<CriticalPathStats>,
}

impl SimStats {
    /// A fresh, all-zero tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// The call counters for one category, if the engine ever touched it.
    pub fn category(&self, category: CategoryId) -> Option<&AllocCallCounts> {
        self.by_category
            .iter()
            .find(|(id, _)| *id == category.0)
            .map(|(_, c)| c)
    }

    fn category_mut(&mut self, category: u32) -> &mut AllocCallCounts {
        let idx = match self.by_category.iter().position(|(id, _)| *id == category) {
            Some(i) => i,
            None => {
                self.by_category
                    .push((category, AllocCallCounts::default()));
                self.by_category.len() - 1
            }
        };
        &mut self.by_category[idx].1
    }

    /// Fold one engine event into the lifecycle counters. The engine counts
    /// every lifecycle fact through here, so applying a run's event log to
    /// `SimStats::default()` rebuilds everything but the allocator-call
    /// tally (`calls`, `by_category`) and `critical_path`.
    #[inline]
    pub fn apply(&mut self, event: &SimEvent) {
        let faults = &mut self.faults;
        match *event {
            SimEvent::TaskSubmitted { .. } => self.submitted += 1,
            SimEvent::TaskDispatched { .. } => self.dispatches += 1,
            SimEvent::TaskCompleted { .. } => self.completions += 1,
            SimEvent::TaskKilled { .. } => self.failures += 1,
            SimEvent::TaskPreempted { .. } => self.preemptions += 1,
            SimEvent::TaskStraggled { .. } => faults.stragglers_slow += 1,
            SimEvent::RetryCapped { .. } => faults.capped_retries += 1,
            SimEvent::WorkerCrashed { .. } => faults.worker_crashes += 1,
            SimEvent::RackCrashed { .. } => faults.rack_crashes += 1,
            SimEvent::TaskCrashed { .. } => faults.crashed_attempts += 1,
            SimEvent::TaskTimedOut { .. } => faults.straggler_kills += 1,
            SimEvent::DispatchFailed { .. } => faults.dispatch_failures += 1,
            SimEvent::RecordDropped { .. } => faults.record_drops += 1,
            SimEvent::RecordRejected { .. } => faults.rejected_records += 1,
            SimEvent::TaskDeadLettered { unarrived, .. } => {
                self.submitted += u64::from(unarrived);
                faults.dead_lettered += 1;
            }
            SimEvent::TaskReplayed { .. } => {
                faults.dead_lettered -= 1;
                faults.replayed += 1;
            }
            SimEvent::ReplayCompleted { .. } => faults.replay_successes += 1,
            SimEvent::TaskCheckpointed { salvaged_s, .. } => {
                faults.checkpointed_attempts += 1;
                self.salvaged_work_s += salvaged_s;
            }
            SimEvent::WorkerJoined { .. } | SimEvent::WorkerLeft { .. } => {}
        }
    }

    /// Record one `predict_first` call.
    pub fn record_predict_first(&mut self, category: u32) {
        self.calls.predictions_first += 1;
        self.category_mut(category).predictions_first += 1;
    }

    /// Record one `predict_retry` call escalating `escalations` managed axes.
    pub fn record_predict_retry(&mut self, category: u32, escalations: u64) {
        self.calls.predictions_retry += 1;
        self.calls.escalations += escalations;
        let c = self.category_mut(category);
        c.predictions_retry += 1;
        c.escalations += escalations;
    }

    /// Record one `observe` call.
    pub fn record_observation(&mut self, category: u32) {
        self.calls.observations += 1;
        self.category_mut(category).observations += 1;
    }

    /// Record one `observe_outcome` call (fault-feedback channel).
    pub fn record_feedback(&mut self, category: u32) {
        self.calls.feedback += 1;
        self.category_mut(category).feedback += 1;
    }

    /// Cross-check this engine-side tally against the allocator's own
    /// [`TraceStats`]. Every mismatch produces one human-readable line;
    /// `Ok(())` means the two bookkeepers agree exactly, overall and per
    /// category.
    pub fn reconcile(&self, trace: &TraceStats) -> Result<(), Vec<String>> {
        let mut mismatches = Vec::new();
        let mut check = |label: String, engine: u64, traced: u64| {
            if engine != traced {
                mismatches.push(format!("{label}: engine counted {engine}, trace {traced}"));
            }
        };
        check(
            "predictions_first".into(),
            self.calls.predictions_first,
            trace.overall.predictions_first(),
        );
        check(
            "predictions_retry".into(),
            self.calls.predictions_retry,
            trace.overall.retry,
        );
        check(
            "observations".into(),
            self.calls.observations,
            trace.overall.observe,
        );
        check(
            "escalations".into(),
            self.calls.escalations,
            trace.overall.escalate,
        );
        check(
            "feedback".into(),
            self.calls.feedback,
            trace.overall.feedback,
        );
        // Structural identities of the engine loop: one retry prediction per
        // kill — except kills that dead-lettered the task instead of
        // retrying — and one observation per completion whose record was
        // neither dropped in flight nor rejected at the observe boundary.
        check(
            "failures=retry events".into(),
            self.failures,
            trace.overall.retry + self.faults.capped_retries,
        );
        check(
            "completions=observe events".into(),
            self.completions,
            trace.overall.observe + self.faults.record_drops + self.faults.rejected_records,
        );
        // Per-category, over the union of both key sets.
        let mut categories: Vec<u32> = self
            .by_category
            .iter()
            .map(|(id, _)| *id)
            .chain(trace.by_category.iter().map(|(id, _)| *id))
            .collect();
        categories.sort_unstable();
        categories.dedup();
        for id in categories {
            let engine = self.category(CategoryId(id)).copied().unwrap_or_default();
            let traced = trace.category(CategoryId(id)).copied().unwrap_or_default();
            check(
                format!("category {id} predictions_first"),
                engine.predictions_first,
                traced.predictions_first(),
            );
            check(
                format!("category {id} predictions_retry"),
                engine.predictions_retry,
                traced.retry,
            );
            check(
                format!("category {id} observations"),
                engine.observations,
                traced.observe,
            );
            check(
                format!("category {id} escalations"),
                engine.escalations,
                traced.escalate,
            );
            check(
                format!("category {id} feedback"),
                engine.feedback,
                traced.feedback,
            );
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches)
        }
    }
}

/// One utilization sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Simulated time, seconds.
    pub time_s: f64,
    /// Live workers.
    pub workers: usize,
    /// Running task attempts.
    pub running: usize,
    /// Capacity currently granted by the pool.
    pub capacity: ResourceVector,
    /// Capacity currently reserved by allocations.
    pub reserved: ResourceVector,
}

impl UtilizationSample {
    /// Reserved share of granted capacity for one dimension (`None` when no
    /// capacity is granted).
    pub fn utilization(&self, kind: ResourceKind) -> Option<f64> {
        let cap = self.capacity[kind];
        if cap <= 0.0 {
            return None;
        }
        Some(self.reserved[kind] / cap)
    }
}

/// A time-ordered utilization series, folded from the engine's events.
///
/// As an [`EventSink`] it keeps the pool as the events describe it — live
/// workers' capacities and running attempts' reservations — and appends a
/// sample after every event that changes either.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilizationSeries {
    samples: Vec<UtilizationSample>,
    /// The pool as of the latest event.
    current: UtilizationSample,
    /// Capacity of each live worker.
    capacities: HashMap<WorkerId, ResourceVector>,
    /// Spatial reservation of each running attempt.
    reservations: HashMap<TaskId, ResourceVector>,
}

impl UtilizationSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample (samples must arrive in time order).
    pub fn push(&mut self, sample: UtilizationSample) {
        debug_assert!(
            self.samples
                .last()
                .is_none_or(|s| s.time_s <= sample.time_s),
            "series must be time-ordered"
        );
        self.samples.push(sample);
    }

    /// All samples.
    pub fn samples(&self) -> &[UtilizationSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Time-weighted mean utilization of one dimension over the series
    /// (each sample holds until the next one). `None` for an empty or
    /// zero-capacity series.
    pub fn mean_utilization(&self, kind: ResourceKind) -> Option<f64> {
        if self.samples.len() < 2 {
            return self.samples.first().and_then(|s| s.utilization(kind));
        }
        let mut weighted = 0.0;
        let mut total = 0.0;
        for w in self.samples.windows(2) {
            let dt = w[1].time_s - w[0].time_s;
            if dt <= 0.0 {
                continue;
            }
            if let Some(u) = w[0].utilization(kind) {
                weighted += u * dt;
                total += dt;
            }
        }
        if total > 0.0 {
            Some(weighted / total)
        } else {
            None
        }
    }

    /// Peak concurrent running attempts.
    pub fn peak_running(&self) -> usize {
        self.samples.iter().map(|s| s.running).max().unwrap_or(0)
    }

    /// Peak live workers.
    pub fn peak_workers(&self) -> usize {
        self.samples.iter().map(|s| s.workers).max().unwrap_or(0)
    }

    /// Downsample to at most `n` evenly spaced points (for plotting).
    pub fn downsample(&self, n: usize) -> UtilizationSeries {
        if n == 0 || self.samples.len() <= n {
            return self.clone();
        }
        let step = self.samples.len() as f64 / n as f64;
        let samples = (0..n)
            .map(|i| self.samples[(i as f64 * step) as usize])
            .collect();
        UtilizationSeries {
            samples,
            ..UtilizationSeries::default()
        }
    }
}

impl EventSink for UtilizationSeries {
    fn emit(&mut self, _event: AllocEvent) {}

    fn emit_sim(&mut self, time_s: f64, event: &SimEvent) {
        let now = &mut self.current;
        match *event {
            SimEvent::WorkerJoined { worker, capacity } => {
                self.capacities.insert(worker, capacity);
                now.workers += 1;
                now.capacity = now.capacity.add(&capacity);
            }
            SimEvent::WorkerLeft { worker } | SimEvent::WorkerCrashed { worker } => {
                let capacity = self.capacities.remove(&worker).unwrap_or_default();
                now.workers = now.workers.saturating_sub(1);
                now.capacity = now.capacity.sub(&capacity);
            }
            SimEvent::TaskDispatched {
                task, allocation, ..
            } => {
                let reserved = spatial(&allocation);
                self.reservations.insert(task, reserved);
                now.running += 1;
                now.reserved = now.reserved.add(&reserved);
            }
            SimEvent::TaskCompleted { task, .. }
            | SimEvent::TaskKilled { task, .. }
            | SimEvent::TaskPreempted { task, .. }
            | SimEvent::TaskCrashed { task, .. }
            | SimEvent::TaskTimedOut { task, .. } => {
                let reserved = self.reservations.remove(&task).unwrap_or_default();
                now.running = now.running.saturating_sub(1);
                // An idle pool reserves exactly nothing, whatever rounding
                // the subtractions left behind.
                now.reserved = match now.running {
                    0 => ResourceVector::ZERO,
                    _ => now.reserved.sub(&reserved),
                };
            }
            _ => return,
        }
        now.time_s = time_s;
        self.samples.push(*now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, reserved_cores: f64) -> UtilizationSample {
        UtilizationSample {
            time_s: t,
            workers: 2,
            running: reserved_cores as usize,
            capacity: ResourceVector::new(32.0, 131072.0, 131072.0),
            reserved: ResourceVector::new(reserved_cores, 0.0, 0.0),
        }
    }

    #[test]
    fn utilization_per_sample() {
        let s = sample(0.0, 16.0);
        assert_eq!(s.utilization(ResourceKind::Cores), Some(0.5));
        assert_eq!(s.utilization(ResourceKind::MemoryMb), Some(0.0));
        assert_eq!(s.utilization(ResourceKind::Gpus), None); // zero capacity
    }

    #[test]
    fn time_weighted_mean() {
        let mut series = UtilizationSeries::new();
        // 0.25 utilization for 10 s, then 0.75 for 30 s → mean 0.625.
        series.push(sample(0.0, 8.0));
        series.push(sample(10.0, 24.0));
        series.push(sample(40.0, 0.0));
        let mean = series.mean_utilization(ResourceKind::Cores).unwrap();
        assert!((mean - 0.625).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn single_sample_mean_is_its_value() {
        let mut series = UtilizationSeries::new();
        series.push(sample(3.0, 16.0));
        assert_eq!(series.mean_utilization(ResourceKind::Cores), Some(0.5));
        assert!(UtilizationSeries::new()
            .mean_utilization(ResourceKind::Cores)
            .is_none());
    }

    #[test]
    fn peaks_and_downsampling() {
        let mut series = UtilizationSeries::new();
        for i in 0..100 {
            series.push(sample(i as f64, (i % 32) as f64));
        }
        assert_eq!(series.peak_running(), 31);
        assert_eq!(series.peak_workers(), 2);
        let down = series.downsample(10);
        assert_eq!(down.len(), 10);
        assert_eq!(down.samples()[0].time_s, 0.0);
        // Downsampling a short series is identity.
        assert_eq!(series.downsample(1000).len(), 100);
        assert_eq!(series.downsample(0).len(), 100);
    }

    #[test]
    fn series_folds_pool_events() {
        use tora_alloc::task::TaskId;
        let cap = ResourceVector::new(16.0, 1000.0, 1000.0);
        let alloc = {
            let mut a = ResourceVector::new(4.0, 250.0, 100.0);
            a[ResourceKind::TimeS] = 60.0; // temporal axes reserve nothing
            a
        };
        let (w0, w1, t0) = (WorkerId(0), WorkerId(1), TaskId(7));
        let mut series = UtilizationSeries::new();
        let events = [
            (
                0.0,
                SimEvent::WorkerJoined {
                    worker: w0,
                    capacity: cap,
                },
            ),
            (
                0.0,
                SimEvent::WorkerJoined {
                    worker: w1,
                    capacity: cap,
                },
            ),
            (0.0, SimEvent::TaskSubmitted { task: t0 }),
            (
                1.0,
                SimEvent::TaskDispatched {
                    task: t0,
                    worker: w1,
                    attempt: 1,
                    allocation: alloc,
                },
            ),
            (5.0, SimEvent::WorkerLeft { worker: w0 }),
            (
                9.0,
                SimEvent::TaskCompleted {
                    task: t0,
                    worker: w1,
                },
            ),
        ];
        for (t, e) in &events {
            series.emit_sim(*t, e);
        }
        // One sample per pool-changing event; the submission changes nothing.
        let s = series.samples();
        assert_eq!(s.len(), 5);
        assert_eq!((s[1].workers, s[1].capacity), (2, cap.scale(2.0)));
        assert_eq!((s[2].time_s, s[2].running), (1.0, 1));
        assert_eq!(s[2].utilization(ResourceKind::Cores), Some(0.125));
        assert_eq!(s[2].reserved[ResourceKind::TimeS], 0.0);
        assert_eq!((s[3].workers, s[3].capacity), (1, cap));
        assert_eq!(s[3].utilization(ResourceKind::Cores), Some(0.25));
        assert_eq!((s[4].running, s[4].reserved), (0, ResourceVector::ZERO));
        assert_eq!(series.peak_workers(), 2);
        assert_eq!(series.peak_running(), 1);
        // 0.125 over [1, 5), 0.25 over [5, 9).
        let mean = series.mean_utilization(ResourceKind::Cores).unwrap();
        assert!((mean - 0.1875 * 8.0 / 9.0).abs() < 1e-12, "{mean}");
    }
}

#[cfg(test)]
mod sim_stats_tests {
    use super::*;
    use tora_alloc::trace::{AllocEvent, EventSink, PredictKind, TraceStats};

    fn matching_pair() -> (SimStats, TraceStats) {
        let mut stats = SimStats::new();
        let mut trace = TraceStats::new();
        let alloc = ResourceVector::new(1.0, 100.0, 10.0);
        // Category 0: explore, first, one retry escalating two axes, one
        // completion.
        stats.record_predict_first(0);
        trace.emit(AllocEvent::predict(
            CategoryId(0),
            PredictKind::Explore,
            alloc,
            Vec::new(),
        ));
        stats.record_predict_first(0);
        trace.emit(AllocEvent::predict(
            CategoryId(0),
            PredictKind::First,
            alloc,
            Vec::new(),
        ));
        stats.failures += 1;
        stats.record_predict_retry(0, 2);
        trace.emit(AllocEvent::escalate(
            CategoryId(0),
            ResourceKind::Cores,
            1.0,
            2.0,
        ));
        trace.emit(AllocEvent::escalate(
            CategoryId(0),
            ResourceKind::MemoryMb,
            100.0,
            200.0,
        ));
        trace.emit(AllocEvent::predict(
            CategoryId(0),
            PredictKind::Retry,
            alloc,
            Vec::new(),
        ));
        stats.completions += 1;
        stats.record_observation(0);
        trace.emit(AllocEvent::observe(CategoryId(0), alloc, 1.0));
        // One fault-feedback report on the completion.
        stats.record_feedback(0);
        trace.emit(AllocEvent::feedback(
            CategoryId(0),
            tora_alloc::feedback::AttemptFeedback::Success,
            0.0,
            1.0,
        ));
        // Category 3: a lone exploratory prediction.
        stats.record_predict_first(3);
        trace.emit(AllocEvent::predict(
            CategoryId(3),
            PredictKind::Explore,
            alloc,
            Vec::new(),
        ));
        (stats, trace)
    }

    #[test]
    fn reconcile_accepts_matching_tallies() {
        let (stats, trace) = matching_pair();
        stats.reconcile(&trace).unwrap();
        assert_eq!(stats.calls.predictions_first, 3);
        assert_eq!(stats.category(CategoryId(3)).unwrap().predictions_first, 1);
        assert!(stats.category(CategoryId(9)).is_none());
    }

    #[test]
    fn reconcile_reports_every_mismatch() {
        let (mut stats, trace) = matching_pair();
        stats.record_predict_first(0); // engine claims an extra prediction
        stats.calls.escalations += 1; // and an extra escalation
        let errs = stats.reconcile(&trace).unwrap_err();
        assert!(errs.len() >= 3, "{errs:?}"); // overall x2 + category 0
        assert!(errs.iter().any(|e| e.contains("predictions_first")));
        assert!(errs.iter().any(|e| e.contains("escalations")));
    }

    #[test]
    fn reconcile_catches_category_only_skew() {
        // Overall totals agree but the per-category split does not.
        let (mut stats, trace) = matching_pair();
        // Move a first-prediction from category 0 to category 3.
        stats.category_mut(0).predictions_first -= 1;
        stats.category_mut(3).predictions_first += 1;
        let errs = stats.reconcile(&trace).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("category 0")));
        assert!(errs.iter().any(|e| e.contains("category 3")));
    }

    #[test]
    fn sim_stats_serde_round_trip() {
        let (stats, _) = matching_pair();
        let json = serde_json::to_string(&stats).unwrap();
        let back: SimStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn apply_folds_every_lifecycle_counter() {
        use tora_alloc::task::TaskId;
        use tora_metrics::DeadLetterCause;
        let (task, worker) = (TaskId(1), WorkerId(2));
        let dead = |unarrived| SimEvent::TaskDeadLettered {
            task,
            cause: DeadLetterCause::Stalled,
            unarrived,
        };
        let mut stats = SimStats::new();
        for event in [
            SimEvent::TaskSubmitted { task },
            SimEvent::TaskDispatched {
                task,
                worker,
                attempt: 1,
                allocation: ResourceVector::ZERO,
            },
            SimEvent::TaskCompleted { task, worker },
            SimEvent::TaskStraggled { task },
            SimEvent::TaskKilled { task, worker },
            SimEvent::RetryCapped { task },
            SimEvent::TaskPreempted { task, worker },
            SimEvent::WorkerJoined {
                worker,
                capacity: ResourceVector::ZERO,
            },
            SimEvent::WorkerLeft { worker },
            SimEvent::WorkerCrashed { worker },
            SimEvent::RackCrashed { rack: 1 },
            SimEvent::TaskCrashed { task, worker },
            SimEvent::TaskTimedOut { task, worker },
            SimEvent::DispatchFailed { task },
            SimEvent::RecordDropped { task },
            SimEvent::RecordRejected { task },
            dead(false),
            dead(true),
            SimEvent::TaskReplayed { task },
            SimEvent::ReplayCompleted { task },
            SimEvent::TaskCheckpointed {
                task,
                salvaged_s: 2.5,
            },
        ] {
            stats.apply(&event);
        }
        let ones = FaultCounts {
            worker_crashes: 1,
            crashed_attempts: 1,
            straggler_kills: 1,
            stragglers_slow: 1,
            record_drops: 1,
            dispatch_failures: 1,
            rejected_records: 1,
            dead_lettered: 1, // two dead letters, one withdrawn by a replay
            capped_retries: 1,
            rack_crashes: 1,
            replayed: 1,
            replay_successes: 1,
            checkpointed_attempts: 1,
        };
        let expected = SimStats {
            submitted: 2, // one arrival, one dead letter that never arrived
            dispatches: 1,
            completions: 1,
            failures: 1,
            preemptions: 1,
            faults: ones,
            salvaged_work_s: 2.5,
            ..SimStats::new()
        };
        assert_eq!(stats, expected);
    }
}
