//! The adaptive resource allocator (§IV-D).
//!
//! An [`Allocator`] owns one estimator per *(task category, resource kind)*
//! pair — "an allocator treats each category of tasks independently and uses
//! a separate instance of a bucketing manager per category. Within each
//! category, the bucketing manager maintains a separate instance of a
//! resource state" — and implements the exploratory mode of §V-A:
//!
//! * the bucketing algorithms allocate a conservative (1 core, 1 GB memory,
//!   1 GB disk) probe until 10 records exist, doubling exhausted dimensions
//!   on failure;
//! * the comparator algorithms "allocate a whole machine instead, trading an
//!   expensive exploratory cost with a guarantee of successful task
//!   execution" (§V-C).
//!
//! All allocations are clamped to the worker capacity: nothing larger could
//! be scheduled.
//!
//! ## Construction
//!
//! [`Allocator::builder`] sets the seed, worker shape, fault policy and
//! event sink; [`Allocator::with_config`] takes a whole
//! [`AllocatorConfig`]:
//!
//! ```
//! use tora_alloc::allocator::{AlgorithmKind, Allocator, AllocatorConfig};
//!
//! let allocator = Allocator::builder(AlgorithmKind::GreedyBucketing)
//!     .seed(42)
//!     .build();
//! assert_eq!(allocator.label(), "greedy-bucketing");
//!
//! let config = AllocatorConfig {
//!     exploratory_records: 5,
//!     ..AllocatorConfig::default()
//! };
//! let allocator = Allocator::with_config(AlgorithmKind::GreedyBucketing, config, 42);
//! assert_eq!(allocator.config().exploratory_records, 5);
//! ```
//!
//! ## Decision tracing
//!
//! The allocator is generic over an [`EventSink`]; the default [`NoopSink`]
//! compiles tracing out entirely. Every prediction also returns an
//! [`AllocationDecision`] carrying per-axis provenance, so callers can see
//! *why* an allocation has the shape it has without installing a sink.

use crate::estimator::RebucketInfo;
use crate::feedback::{AttemptFeedback, FaultPolicy, FeedbackState};
use crate::resources::{ResourceKind, ResourceMask, ResourceVector, WorkerSpec};
use crate::task::{CategoryId, ResourceRecord, TaskContext};
use crate::trace::{AllocEvent, EventSink, NoopSink, PredictKind};
use std::collections::HashMap;
use std::fmt;

mod shard;
mod types;

use shard::CategoryShard;

pub use types::{
    AlgorithmKind, AllocationDecision, AllocatorConfig, EstimatorFactory, ExploratoryPolicy,
};

#[cfg(test)]
mod tests;

/// Staged construction of an [`Allocator`].
///
/// Obtained from [`Allocator::builder`]; finish with [`build`] for an
/// untraced allocator or [`sink`] to attach an [`EventSink`].
///
/// [`build`]: AllocatorBuilder::build
/// [`sink`]: AllocatorBuilder::sink
#[derive(Debug, Clone)]
pub struct AllocatorBuilder {
    algorithm: AlgorithmKind,
    config: AllocatorConfig,
    seed: u64,
    fault_policy: Option<FaultPolicy>,
}

impl AllocatorBuilder {
    /// RNG seed for bucket sampling (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker shape allocations are clamped to.
    pub fn machine(mut self, machine: WorkerSpec) -> Self {
        self.config.machine = machine;
        self
    }

    /// Enable the fault-feedback policy (absent by default).
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = Some(policy);
        self
    }

    /// Build an untraced allocator.
    pub fn build(self) -> Allocator {
        let mut allocator = Allocator::with_config(self.algorithm, self.config, self.seed);
        allocator.set_fault_policy(self.fault_policy);
        allocator
    }

    /// Build a traced allocator emitting [`AllocEvent`]s into `sink`.
    pub fn sink<S: EventSink>(self, sink: S) -> Allocator<S> {
        self.build().with_sink(sink)
    }
}

/// The adaptive allocator: the §IV-D `Allocator` pseudocode, concretely.
///
/// Generic over an [`EventSink`]; the default [`NoopSink`] disables decision
/// tracing at compile time.
///
/// State is sharded by category (one private `CategoryShard` each): each
/// category owns its estimator bank *and its own RNG stream* (seeded
/// `seed ^ category`), so the answers one category gets never depend on
/// how calls to other categories interleave with its own.
pub struct Allocator<S: EventSink = NoopSink> {
    label: String,
    algorithm: Option<AlgorithmKind>,
    factory: EstimatorFactory,
    config: AllocatorConfig,
    exploratory: ExploratoryPolicy,
    categories: HashMap<CategoryId, CategoryShard>,
    seed: u64,
    rejected: u64,
    fault_policy: Option<FaultPolicy>,
    feedback: FeedbackState,
    sink: S,
}

impl Allocator {
    /// Start building an allocator for `algorithm`.
    pub fn builder(algorithm: AlgorithmKind) -> AllocatorBuilder {
        AllocatorBuilder {
            algorithm,
            config: AllocatorConfig::default(),
            seed: 0,
            fault_policy: None,
        }
    }

    /// Build an allocator for `algorithm` with the paper's defaults and a
    /// deterministic seed. Shorthand for
    /// `Allocator::builder(algorithm).seed(seed).build()`.
    pub fn new(algorithm: AlgorithmKind, seed: u64) -> Self {
        Self::with_config(algorithm, AllocatorConfig::default(), seed)
    }

    /// Build with an explicit configuration.
    pub fn with_config(algorithm: AlgorithmKind, config: AllocatorConfig, seed: u64) -> Self {
        let exploratory = config
            .exploratory
            .unwrap_or(if algorithm.conservative_exploration() {
                ExploratoryPolicy::paper_conservative()
            } else {
                ExploratoryPolicy::WholeMachine
            });
        Allocator {
            label: algorithm.label().to_string(),
            algorithm: Some(algorithm),
            factory: Box::new(move |kind, machine| algorithm.build_estimator(kind, machine)),
            config,
            exploratory,
            categories: HashMap::new(),
            seed,
            rejected: 0,
            fault_policy: None,
            feedback: FeedbackState::new(),
            sink: NoopSink,
        }
    }

    /// Build around a custom estimator factory — the escape hatch for
    /// algorithm variants without an [`AlgorithmKind`] (ablations).
    /// `config.exploratory` must be set (there is no per-algorithm default
    /// to fall back to).
    pub fn with_factory(
        label: impl Into<String>,
        factory: EstimatorFactory,
        config: AllocatorConfig,
        seed: u64,
    ) -> Self {
        let exploratory = config
            .exploratory
            .expect("with_factory requires an explicit exploratory policy");
        Allocator {
            label: label.into(),
            algorithm: None,
            factory,
            config,
            exploratory,
            categories: HashMap::new(),
            seed,
            rejected: 0,
            fault_policy: None,
            feedback: FeedbackState::new(),
            sink: NoopSink,
        }
    }

    /// Attach an [`EventSink`], turning this untraced allocator into a
    /// traced one. All estimator state and the per-shard RNG positions
    /// carry over.
    pub fn with_sink<S: EventSink>(self, sink: S) -> Allocator<S> {
        Allocator {
            label: self.label,
            algorithm: self.algorithm,
            factory: self.factory,
            config: self.config,
            exploratory: self.exploratory,
            categories: self.categories,
            seed: self.seed,
            rejected: self.rejected,
            fault_policy: self.fault_policy,
            feedback: self.feedback,
            sink,
        }
    }
}

impl<S: EventSink> Allocator<S> {
    /// The algorithm driving this allocator (`None` for factory-built
    /// variants).
    pub fn algorithm(&self) -> Option<AlgorithmKind> {
        self.algorithm
    }

    /// Report label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The active configuration.
    pub fn config(&self) -> &AllocatorConfig {
        &self.config
    }

    /// Records observed for `category`.
    #[cfg(test)]
    pub fn records_for(&self, category: CategoryId) -> usize {
        self.categories.get(&category).map_or(0, |s| s.records())
    }

    /// Install (or remove, with `None`) the fault-feedback policy. Call
    /// before the run starts: the switch only decides whether the outcome
    /// history already being kept moves predictions.
    pub fn set_fault_policy(&mut self, policy: Option<FaultPolicy>) {
        self.fault_policy = policy;
    }

    /// Report one attempt outcome through the fault-feedback channel
    /// (§II-A adversarial-robustness extension) — the single entry point
    /// feeding the decayed per-category and per-rack windows. Pure
    /// telemetry when no [`FaultPolicy`] is installed; with one, the
    /// decayed crash/timeout rate of the task's *own category* starts
    /// padding first predictions and biasing retry escalations, and racks
    /// crossing the crash threshold surface through
    /// [`avoided_racks`](Self::avoided_racks). Consumes no randomness
    /// either way.
    pub fn observe_outcome(
        &mut self,
        category: CategoryId,
        outcome: AttemptFeedback,
        rack: Option<u32>,
    ) {
        self.feedback.observe(category, outcome, rack);
        if S::ENABLED {
            let rate = self.windowed_fault_rate();
            let padding = self.feedback_padding(category);
            self.sink
                .emit(AllocEvent::feedback(category, outcome, rate, padding));
        }
    }

    /// The decayed global fault rate feeding telemetry (`0.0` while too
    /// few outcomes are recorded).
    pub(crate) fn windowed_fault_rate(&self) -> f64 {
        self.feedback.global_rate()
    }

    /// Racks whose decayed crash rate crossed the feedback threshold, in
    /// ascending order; always empty without a policy or observed faults.
    pub fn avoided_racks(&self) -> &[u32] {
        match self.fault_policy {
            Some(_) => self.feedback.avoided_racks(),
            None => &[],
        }
    }

    /// Padding factor on first predictions for `category`; exactly `1.0`
    /// without a policy or without observed faults.
    fn feedback_padding(&self, category: CategoryId) -> f64 {
        self.fault_policy
            .map_or(1.0, |p| p.padding(self.feedback.effective_rate(category)))
    }

    /// Escalation factor on retry predictions for `category`; exactly
    /// `1.0` without a policy or without observed faults.
    fn feedback_escalation(&self, category: CategoryId) -> f64 {
        self.fault_policy.map_or(1.0, |p| {
            p.escalation(self.feedback.effective_rate(category))
        })
    }

    /// The attached event sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The attached event sink, mutably.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consume the allocator and return its sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Entry point taking the fields it needs, so callers can keep borrows
    /// of the sink alive alongside the category state.
    fn shard_entry<'a>(
        categories: &'a mut HashMap<CategoryId, CategoryShard>,
        config: &AllocatorConfig,
        factory: &EstimatorFactory,
        seed: u64,
        category: CategoryId,
    ) -> &'a mut CategoryShard {
        categories
            .entry(category)
            .or_insert_with(|| CategoryShard::new(category, config, factory, seed))
    }

    /// The exploratory allocation vector. Unmanaged dimensions get the full
    /// machine so they never spuriously fail; so does a managed dimension
    /// whose probe is unset (zero) — e.g. managing the wall-time axis with
    /// the paper's (1 core, 1 GB, 1 GB) probe, which says nothing about
    /// time.
    fn exploratory_allocation(&self) -> ResourceVector {
        let mut alloc = self.config.machine.capacity;
        if let ExploratoryPolicy::Conservative { probe } = self.exploratory {
            for &k in &self.config.managed {
                if probe[k] > 0.0 {
                    alloc[k] = probe[k];
                }
            }
        }
        alloc.clamp_to(&self.config.machine.capacity)
    }

    /// Predict the allocation for a task's first attempt (§IV-A steps 2–3).
    ///
    /// Accepts anything convertible to a [`TaskContext`]: a bare
    /// [`CategoryId`] (features default to zero — the category-global
    /// algorithms never read them) or a full context carrying the task's
    /// pre-run feature vector for the feature-conditioned estimators.
    pub fn predict_first(&mut self, ctx: impl Into<TaskContext>) -> AllocationDecision {
        let ctx = ctx.into();
        let category = ctx.category;
        let in_exploration = self.categories.get(&category).map_or(0, |s| s.records())
            < self.config.exploratory_records;
        if in_exploration {
            // An exploratory prediction touches no shard state and consumes
            // no draws — the category may not even exist yet.
            let alloc = self.exploratory_allocation();
            if S::ENABLED {
                self.sink.emit(AllocEvent::predict(
                    category,
                    PredictKind::Explore,
                    alloc,
                    Vec::new(),
                ));
            }
            return AllocationDecision {
                alloc,
                kind: PredictKind::Explore,
                provenance: Vec::new(),
                infeasible: false,
            };
        }
        // Fault-feedback padding: ×1.0 (an exact no-op) without a policy or
        // without observed faults.
        let pad = self.feedback_padding(category);
        let exploratory_alloc = self.exploratory_allocation();
        let shard = Self::shard_entry(
            &mut self.categories,
            &self.config,
            &self.factory,
            self.seed,
            category,
        );
        let mut events = Vec::new();
        let decision = shard.predict_first_steady(
            &ctx,
            &self.config,
            pad,
            exploratory_alloc,
            S::ENABLED.then_some(&mut events),
        );
        for event in events {
            self.sink.emit(event);
        }
        decision
    }

    /// Predict the allocation for a retry after `prev` was killed having
    /// exhausted the `exhausted` dimensions. Non-exhausted dimensions keep
    /// their previous allocation (§IV-A: each resource escalates
    /// independently).
    pub fn predict_retry(
        &mut self,
        ctx: impl Into<TaskContext>,
        prev: &ResourceVector,
        exhausted: &ResourceMask,
    ) -> AllocationDecision {
        let ctx = ctx.into();
        let category = ctx.category;
        // Fault-feedback escalation bias: ×1.0 (an exact no-op) without a
        // policy or without observed faults.
        let esc = self.feedback_escalation(category);
        let shard = Self::shard_entry(
            &mut self.categories,
            &self.config,
            &self.factory,
            self.seed,
            category,
        );
        let mut events = Vec::new();
        let decision = shard.predict_retry_core(
            &ctx,
            &self.config,
            prev,
            exhausted,
            esc,
            S::ENABLED.then_some(&mut events),
        );
        for event in events {
            self.sink.emit(event);
        }
        decision
    }

    /// A read-only snapshot of the bucketing state of one (category,
    /// resource kind) pair. Never recomputes — the view may lag behind
    /// unprocessed observations; call [`rebucket`](Self::rebucket) first
    /// for a fresh one. `None` when the category is unknown, the kind is
    /// unmanaged, or the algorithm keeps no bucket structure.
    pub fn snapshot(
        &self,
        category: CategoryId,
        kind: ResourceKind,
    ) -> Option<crate::bucket::BucketSet> {
        self.categories.get(&category)?.snapshot_axis(kind)
    }

    /// Force the estimator of one (category, resource kind) pair to fold
    /// pending observations into a fresh bucketing configuration, and
    /// describe the result. `None` when there is nothing to rebucket.
    pub fn rebucket(&mut self, category: CategoryId, kind: ResourceKind) -> Option<RebucketInfo> {
        let info = self.categories.get_mut(&category)?.rebucket_axis(kind)?;
        if S::ENABLED {
            self.sink.emit(AllocEvent::rebucket(category, kind, &info));
        }
        Some(info)
    }

    /// Force every (category, resource kind) estimator to fold pending
    /// observations into a fresh bucketing configuration, sweeping the
    /// categories in ascending order (managed-axis order within one).
    /// Pairs with nothing to rebucket are omitted, exactly as
    /// [`rebucket`](Self::rebucket) returns `None`.
    pub fn rebucket_all(&mut self) -> Vec<(CategoryId, ResourceKind, RebucketInfo)> {
        let mut shards: Vec<&mut CategoryShard> = self.categories.values_mut().collect();
        shards.sort_by_key(|s| s.category());
        let mut swept = Vec::new();
        for shard in shards {
            let category = shard.category();
            for (kind, info) in shard.rebucket_all_axes() {
                if S::ENABLED {
                    self.sink.emit(AllocEvent::rebucket(category, kind, &info));
                }
                swept.push((category, kind, info));
            }
        }
        swept
    }

    /// Ingest a completed task's resource record (§IV-A step 6).
    ///
    /// The record is validated first: a non-finite or negative peak on any
    /// managed axis, or a non-finite/non-positive significance, would
    /// silently poison the estimators' weighted sums (`debug_assert`s inside
    /// the estimators vanish in release builds). Invalid records are
    /// rejected, counted (see [`rejected_records`](Self::rejected_records)),
    /// and leave every estimator untouched. Returns whether the record was
    /// ingested.
    pub fn observe(&mut self, record: &ResourceRecord) -> bool {
        let sig = if self.config.uniform_significance {
            1.0
        } else {
            record.significance
        };
        let valid = sig.is_finite()
            && sig > 0.0
            && self.config.managed.iter().all(|&k| {
                let peak = record.peak[k];
                peak.is_finite() && peak >= 0.0
            });
        if !valid {
            self.rejected += 1;
            return false;
        }
        if S::ENABLED {
            self.sink
                .emit(AllocEvent::observe(record.category, record.peak, sig));
        }
        let shard = Self::shard_entry(
            &mut self.categories,
            &self.config,
            &self.factory,
            self.seed,
            record.category,
        );
        shard.observe(&record.peak, sig, &record.features);
        true
    }

    /// Number of records rejected at the [`observe`](Self::observe)
    /// validation boundary.
    pub fn rejected_records(&self) -> u64 {
        self.rejected
    }
}

impl<S: EventSink> fmt::Debug for Allocator<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Allocator")
            .field("label", &self.label)
            .field("categories", &self.categories.len())
            .field("traced", &S::ENABLED)
            .finish_non_exhaustive()
    }
}
