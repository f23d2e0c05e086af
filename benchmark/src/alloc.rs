//! The allocator layer, seen from outside: a counting [`EventSink`] and a
//! timed serial replay of a task stream through a fresh [`Allocator`].

use crate::trace::{Tracer, NO_SPAN};
use crate::{ratio, Layers};
use std::time::Instant;
use tora::alloc::allocator::{AlgorithmKind, Allocator};
use tora::alloc::feedback::FaultPolicy;
use tora::alloc::task::{ResourceRecord, TaskContext};
use tora::alloc::trace::{AllocEvent, EventSink, PredictKind};
use tora::workloads::TaskSource;

/// Allocator event tallies, by event kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Steady-state first predictions.
    pub predict_first: u64,
    /// Exploratory first predictions.
    pub predict_explore: u64,
    /// Retry predictions after an exhaustion kill.
    pub predict_retry: u64,
    /// Observed records.
    pub observe: u64,
    /// Per-axis escalations.
    pub escalate: u64,
    /// Attempt-outcome feedback reports.
    pub feedback: u64,
    /// Bucketing rebuilds.
    pub rebucket: u64,
    /// Records the rebuilds were computed over, summed.
    pub rebucket_records: u64,
}

impl EventSink for AllocCounts {
    fn emit(&mut self, event: AllocEvent) {
        match event {
            AllocEvent::Predict { kind, .. } => match kind {
                PredictKind::First => self.predict_first += 1,
                PredictKind::Explore => self.predict_explore += 1,
                PredictKind::Retry => self.predict_retry += 1,
            },
            AllocEvent::Observe { .. } => self.observe += 1,
            AllocEvent::Escalate { .. } => self.escalate += 1,
            AllocEvent::Feedback { .. } => self.feedback += 1,
            AllocEvent::Rebucket { n_records, .. } => {
                self.rebucket += 1;
                self.rebucket_records += n_records as u64;
            }
        }
    }
}

impl AllocCounts {
    /// Fold `other` into these tallies.
    pub fn add(&mut self, other: &AllocCounts) {
        self.predict_first += other.predict_first;
        self.predict_explore += other.predict_explore;
        self.predict_retry += other.predict_retry;
        self.observe += other.observe;
        self.escalate += other.escalate;
        self.feedback += other.feedback;
        self.rebucket += other.rebucket;
        self.rebucket_records += other.rebucket_records;
    }

    /// Set the `alloc.*` count metrics; `tasks` is the base of
    /// `alloc.predicts_per_task`.
    pub fn report(&self, tasks: u64, layers: &mut Layers) {
        let firsts = (self.predict_first + self.predict_explore) as f64;
        layers.set("alloc.predict_first", self.predict_first as f64);
        layers.set("alloc.predict_explore", self.predict_explore as f64);
        layers.set("alloc.predict_retry", self.predict_retry as f64);
        layers.set("alloc.observe", self.observe as f64);
        layers.set("alloc.escalate", self.escalate as f64);
        layers.set("alloc.feedback", self.feedback as f64);
        layers.set("alloc.rebucket", self.rebucket as f64);
        layers.set("alloc.rebucket_records", self.rebucket_records as f64);
        layers.set(
            "alloc.first_fit_ratio",
            1.0 - ratio(self.predict_retry as f64, firsts),
        );
        layers.set(
            "alloc.predicts_per_task",
            ratio(firsts + self.predict_retry as f64, tasks as f64),
        );
    }
}

/// Replay `source` serially through a fresh allocator: per task, one first
/// prediction, retries until the allocation covers the true peak, then the
/// observation. Each call is timed at its boundary in `tracer`, under one
/// `alloc.replay` span. Returns the allocator's event tallies.
pub fn replay(
    mut source: Box<dyn TaskSource>,
    algorithm: AlgorithmKind,
    seed: u64,
    fault_policy: Option<FaultPolicy>,
    tracer: &mut Tracer,
) -> AllocCounts {
    let mut builder = Allocator::builder(algorithm)
        .seed(seed)
        .machine(source.worker());
    if let Some(policy) = fault_policy {
        builder = builder.fault_policy(policy);
    }
    let mut allocator = builder.sink(AllocCounts::default());
    let start = Instant::now();
    let root = tracer.open("alloc.replay", start, NO_SPAN);
    while let Some(task) = source.next_task() {
        let context = TaskContext::from(&task);
        let t = Instant::now();
        let mut decision = allocator.predict_first(context);
        tracer.record("alloc.predict_first", t, Instant::now(), root);
        loop {
            let exhausted = decision.alloc.exceeded_by(&task.peak);
            if !exhausted.any() || decision.infeasible {
                break;
            }
            let prev = decision.alloc;
            let t = Instant::now();
            decision = allocator.predict_retry(context, &prev, &exhausted);
            tracer.record("alloc.predict_retry", t, Instant::now(), root);
        }
        let record = ResourceRecord::from_task(&task);
        let t = Instant::now();
        allocator.observe(&record);
        tracer.record("alloc.observe", t, Instant::now(), root);
    }
    tracer.close(root, "alloc.replay", start, Instant::now());
    allocator.into_sink()
}

/// Set the `alloc.*` timing metrics from a tracer that ran [`replay`].
pub fn report_replay(tracer: &mut Tracer, layers: &mut Layers) {
    layers.set(
        "alloc.predict_first_ns",
        tracer.mean_ns("alloc.predict_first"),
    );
    layers.set(
        "alloc.predict_first_p99_ns",
        tracer.quantile_ns("alloc.predict_first", 0.99),
    );
    layers.set(
        "alloc.predict_retry_ns",
        tracer.mean_ns("alloc.predict_retry"),
    );
    layers.set("alloc.observe_ns", tracer.mean_ns("alloc.observe"));
    layers.set("alloc.replay_s", tracer.busy_s("alloc.replay"));
}
